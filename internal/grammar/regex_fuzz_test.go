package grammar

import (
	"fmt"
	"regexp"
	"testing"
)

// genPattern builds a pattern from b, one byte per node: literals over
// abc, classes, '.', concatenation, '|', the *, + and ? repetitions,
// {m,n} counts, and groups. Every result parses; depth bounds its size.
func genPattern(b []byte) string {
	classes := []string{"[ab]", "[^a]", "[a-b]", "[^abc]", `\w`, `\s`}
	var gen func(depth int) string
	gen = func(depth int) string {
		var op byte
		if len(b) > 0 {
			op, b = b[0], b[1:]
		}
		arg := op / 10
		switch k := op % 10; {
		case depth >= 4 || k < 3:
			return string("abc"[arg%3])
		case k == 3:
			return classes[int(arg)%len(classes)]
		case k == 4:
			return "."
		case k == 5:
			return gen(depth+1) + gen(depth+1)
		case k == 6:
			return gen(depth+1) + "|" + gen(depth+1)
		case k == 7:
			return "(" + gen(depth+1) + ")" + string("*+?"[arg%3])
		case k == 8:
			m, n := arg%3, arg%3+arg/3%3
			counts := [...]string{fmt.Sprintf("{%d}", m), fmt.Sprintf("{%d,}", m), fmt.Sprintf("{%d,%d}", m, n)}
			return "(" + gen(depth+1) + ")" + counts[arg/9%3]
		default:
			return "(" + gen(depth+1) + ")"
		}
	}
	return gen(0)
}

// FuzzRegexAgainstStdlib holds whole-text matching of a generated
// pattern to the standard library's ^(?s:…)$ on every prefix of an input
// over abc, and holds that once a prefix is dead no longer prefix
// matches.
func FuzzRegexAgainstStdlib(f *testing.F) {
	f.Add([]byte{6, 0, 10}, []byte("ab"))
	f.Add([]byte{7, 5, 0, 13}, []byte("abab"))
	f.Add([]byte{8, 100, 3}, []byte("aaaaaa"))
	f.Add([]byte{5, 33, 4}, []byte("cab"))
	f.Add([]byte{5, 8, 71, 6, 1, 11, 0}, []byte("bbbbbbbbbbbbbbbbbbbbbbbb"))
	f.Fuzz(func(t *testing.T, pat, in []byte) {
		p := genPattern(pat)
		r, err := CompileRegex(p)
		if err != nil {
			t.Fatalf("CompileRegex(%q): %v", p, err)
		}
		std := regexp.MustCompile("^(?s:" + p + ")$")
		text := make([]byte, min(len(in), 32))
		for i := range text {
			text[i] = "abc"[in[i]%3]
		}
		state := r.Start()
		for i := 0; i <= len(text); i++ {
			if i > 0 {
				state = r.Step(state, string(text[i-1:i]))
			}
			got, want := r.Accepting(state), std.MatchString(string(text[:i]))
			if len(state) == 0 && want {
				t.Fatalf("pattern %q: %q matches after a dead prefix", p, text[:i])
			}
			if got != want {
				t.Fatalf("pattern %q input %q: grammar=%v stdlib=%v", p, text[:i], got, want)
			}
		}
	})
}
