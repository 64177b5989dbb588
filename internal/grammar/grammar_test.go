package grammar

import (
	"encoding/json"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

func mustCompile(t *testing.T, pattern string) *Regex {
	t.Helper()
	r, err := CompileRegex(pattern)
	if err != nil {
		t.Fatalf("CompileRegex(%q): %v", pattern, err)
	}
	return r
}

// matches reports whether the whole of s matches r.
func matches(r *Regex, s string) bool { return r.Accepting(r.Step(r.Start(), s)) }

func TestRegexBasicMatching(t *testing.T) {
	cases := []struct {
		pattern string
		yes     []string
		no      []string
	}{
		{"abc", []string{"abc"}, []string{"", "ab", "abcd", "abd"}},
		{"a*", []string{"", "a", "aaaa"}, []string{"b", "ab"}},
		{"a+b", []string{"ab", "aaab"}, []string{"b", "a", "abb"}},
		{"colou?r", []string{"color", "colour"}, []string{"colouur"}},
		{"(ab|cd)+", []string{"ab", "cd", "abcd", "cdab"}, []string{"", "a", "abc"}},
		{"[a-c]+", []string{"a", "abc", "cba"}, []string{"d", "abd", ""}},
		{"[^0-9]+", []string{"abc", "!?"}, []string{"a1", "7"}},
		{`\d\d-\d\d`, []string{"12-34"}, []string{"1-23", "12-3a"}},
		{`\w+@\w+\.com`, []string{"a_1@b.com"}, []string{"@b.com", "a@b,com"}},
		{"a.c", []string{"abc", "a c", "axc"}, []string{"ac", "abbc"}},
		{`a\.c`, []string{"a.c"}, []string{"abc"}},
		{`\s+`, []string{" ", " \t\n"}, []string{"", "a"}},
		{"()", []string{""}, []string{"x"}},
		{"(yes|no|maybe)", []string{"yes", "no", "maybe"}, []string{"ye", "nom"}},
	}
	for _, c := range cases {
		d := mustCompile(t, c.pattern)
		for _, s := range c.yes {
			if !matches(d, s) {
				t.Errorf("%q should match %q", c.pattern, s)
			}
		}
		for _, s := range c.no {
			if matches(d, s) {
				t.Errorf("%q should not match %q", c.pattern, s)
			}
		}
	}
}

func TestRegexErrors(t *testing.T) {
	for _, p := range []string{"(", "(ab", "[a-", "[abc", "a)", "*a", "+", "?x", "a|*", `\`, "[z-a]", "^a", "a$", `\bx`} {
		if _, err := CompileRegex(p); err == nil {
			t.Errorf("CompileRegex(%q) succeeded", p)
		}
	}
}

// TestRegexAgainstStdlib cross-validates the matcher against the standard
// library on random strings over a small alphabet.
func TestRegexAgainstStdlib(t *testing.T) {
	patterns := []string{
		"a*b+c?",
		"(ab|ba)*",
		"[ab]+c[ab]+",
		"a(b|c)*d?",
		"(a|b)(a|b)(a|b)",
	}
	rng := rand.New(rand.NewSource(42))
	for _, p := range patterns {
		d := mustCompile(t, p)
		std := regexp.MustCompile("^(?:" + p + ")$")
		for i := 0; i < 500; i++ {
			n := rng.Intn(8)
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = "abcd"[rng.Intn(4)]
			}
			s := string(buf)
			if got, want := matches(d, s), std.MatchString(s); got != want {
				t.Fatalf("pattern %q input %q: grammar=%v stdlib=%v", p, s, got, want)
			}
		}
	}
}

func TestRegexAliveStatePruning(t *testing.T) {
	// After "b" the pattern "ab" can never match; Step must report the
	// dead (empty) state immediately, not at the end of input.
	d := mustCompile(t, "ab")
	if st := d.Step(d.Start(), "b"); len(st) != 0 {
		t.Fatalf("step into dead prefix = %v", st)
	}
	// "a" leads to a state from which accept is reachable.
	if st := d.Step(d.Start(), "a"); len(st) == 0 {
		t.Fatal("live prefix reported dead")
	}
	// An empty class consumes nothing, so a branch through it is pruned:
	// after "a" only the b of "a(b|[^\x00-\x{10FFFF}]c)" is live, and
	// "a[^\x00-\x{10FFFF}]" is dead after "a".
	d = mustCompile(t, `a(b|[^\x00-\x{10FFFF}]c)`)
	if st := d.Step(d.Start(), "a"); len(st) != 1 {
		t.Fatalf("live state after a = %v, want the one b instruction", st)
	}
	d = mustCompile(t, `a[^\x00-\x{10FFFF}]`)
	if st := d.Step(d.Start(), "a"); len(st) != 0 {
		t.Fatalf("state after a = %v, want dead", st)
	}
}

// TestDFAStateBudget drives the pattern whose subset construction needs
// about 2^20 DFA states. The matcher builds no DFA, so the pattern
// compiles and answers like any other.
func TestDFAStateBudget(t *testing.T) {
	d := mustCompile(t, "(a|b)*a(a|b){20}")
	long := "a" + strings.Repeat("b", 20) // 21 symbols: a match
	short := strings.Repeat("a", 20)      // 20 symbols: one too few
	if !matches(d, long) {
		t.Errorf("%q should match", long)
	}
	if matches(d, short) {
		t.Errorf("%q should not match", short)
	}
	if st := d.Step(d.Start(), short); len(st) == 0 {
		t.Errorf("%q is a live prefix, reported dead", short)
	}
}

func TestRegexConstraintFlow(t *testing.T) {
	v := token.NewVocab()
	lex := NewLexicon(v, []string{"12", "34", "-", "ab", " "})
	c, err := NewRegexConstraint(`\d\d-\d\d`, lex)
	if err != nil {
		t.Fatal(err)
	}
	// Both two-digit tokens keep a match reachable in the first position;
	// "-", "ab", and " " do not.
	allowed := c.Allowed()
	if len(allowed) != 2 || allowed[0] != v.Intern("12") || allowed[1] != v.Intern("34") {
		t.Fatalf("initial allowed = %v", allowed)
	}
	if err := c.Accept(v.Intern("12")); err != nil {
		t.Fatal(err)
	}
	if c.Done() {
		t.Fatal("done too early")
	}
	if err := c.Accept(v.Intern("ab")); err == nil {
		t.Fatal("accepted invalid token")
	}
	c, err = NewRegexConstraint(`\d\d-\d\d`, lex)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"12", "-", "34"} {
		if err := c.Accept(v.Intern(s)); err != nil {
			t.Fatalf("accept %q: %v", s, err)
		}
	}
	if !c.Done() {
		t.Fatal("complete match not done")
	}
}

// TestChoiceConstraint restricts output to a fixed set of options, the
// one-of-N answer a program asks for with an alternation over the
// options' tokens.
func TestChoiceConstraint(t *testing.T) {
	v := token.NewVocab()
	tk := token.NewTokenizer(v)
	options := []string{"yes", "no", "not sure"}
	var words []string
	for _, o := range options {
		for _, id := range tk.Encode(o) {
			words = append(words, v.String(id))
		}
	}
	lex := NewLexicon(v, words)
	choice := func() *RegexConstraint {
		t.Helper()
		c, err := NewRegexConstraint("yes|no|not sure", lex)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := NewRegexConstraint("yes|no|(", lex); err == nil {
		t.Fatal("malformed choice set accepted")
	}
	c := choice()
	first := c.Allowed()
	if len(first) != 3 { // yes, no, not
		t.Fatalf("initial allowed = %d tokens", len(first))
	}
	if err := c.Accept(v.Intern("not")); err != nil {
		t.Fatal(err)
	}
	if c.Done() {
		t.Fatal("'not' is not a complete option")
	}
	if err := c.Accept(v.Intern(" ")); err != nil {
		t.Fatal(err)
	}
	if err := c.Accept(v.Intern("sure")); err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("'not sure' should be done")
	}
	c = choice()
	if err := c.Accept(v.Intern("yes")); err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatal("'yes' should be done")
	}
	if err := c.Accept(v.Intern("yes")); err == nil {
		t.Fatal("walked past a complete option")
	}
}

// feed accepts s into a fresh JSONConstraint one byte token at a time. It
// reports whether every byte was accepted and whether the text is done.
func feed(s string) (accepted, done bool) {
	v := token.NewVocab()
	words := make([]string, len(s))
	for i := range words {
		words[i] = s[i : i+1]
	}
	c := NewJSONConstraint(NewLexicon(v, words))
	for _, w := range words {
		if c.Accept(v.Intern(w)) != nil {
			return false, false
		}
	}
	return true, c.Done()
}

func TestJSONMachineAcceptsValidDocuments(t *testing.T) {
	docs := []string{
		`{}`, `[]`, `"hi"`, `42`, `-3.5e+10`, `true`, `false`, `null`,
		`{"a":1}`, `{"a":[1,2,{"b":null}],"c":"x"}`,
		` { "k" : [ true , false ] } `,
		`"esc \" and \\ and \n"`,
		`"\/\b\f\r\t"`,
		`"\` + `u0041"`, `"a\` + `u00e9b"`, `{"\` + `u002Fkey":"\` + `uABCD"}`,
		`[[[[1]]]]`, `0`, `-0.5`, `10`, `[0,0]`,
	}
	for _, doc := range docs {
		accepted, done := feed(doc)
		if !accepted {
			t.Errorf("rejected valid %q", doc)
			continue
		}
		if !done {
			t.Errorf("valid %q not complete", doc)
		}
	}
}

func TestJSONMachineRejectsInvalid(t *testing.T) {
	bad := []string{
		`{`, `{,`, `{"a"}`, `{"a":}`, `[1,]x`, `{"a":1,}`, "tru ", `nul!`,
		`1 2`, `{} {}`, `[1 2]`, `{"a" 1}`, `--1`, `+1`, `.`, `01`, `-01`, `[00]`,
	}
	for _, doc := range bad {
		if accepted, done := feed(doc); accepted && done {
			t.Errorf("accepted invalid %q as complete", doc)
		}
	}
	// Hard rejections: the constraint must refuse a byte of these.
	for _, doc := range []string{`}`, `]`, `:`, `,`, `x`, `01`, `{"a":-00`} {
		if accepted, _ := feed(doc); accepted {
			t.Errorf("did not reject %q", doc)
		}
	}
}

// TestJSONConstraintRefusesLeadingZero walks {"value":0 and then offers
// 1: a JSON number has no leading zero, so the constraint must refuse it
// and never report {"value":01} done.
func TestJSONConstraintRefusesLeadingZero(t *testing.T) {
	v := token.NewVocab()
	c := NewJSONConstraint(JSONLexicon(v, "value"))
	for _, s := range []string{"{", "\"", "value", "\"", ":", "0"} {
		if err := c.Accept(v.Intern(s)); err != nil {
			t.Fatalf("accept %q: %v", s, err)
		}
	}
	one := v.Intern("1")
	for _, id := range c.Allowed() {
		if id == one {
			t.Fatal(`1 allowed after {"value":0`)
		}
	}
	if err := c.Accept(one); err == nil {
		t.Fatal(`accepted 1 after {"value":0`)
	}
	if err := c.Accept(v.Intern("}")); err != nil || !c.Done() {
		t.Fatalf(`{"value":0} not done: %v`, err)
	}
}

func TestJSONMachineStringEscapes(t *testing.T) {
	// Invalid escapes must be refused at the offending byte, not pass as
	// ordinary string content.
	bad := []string{
		`"\q"`,      // not in the escape set
		`"\x41"`,    // hex escape is not JSON
		`"\u12"`,    // too few hex digits before the closing quote
		`"\u12g4"`,  // non-hex digit
		`"\u"`,      // no digits at all
		`{"\uZZZZ"`, // bad hex in a key
	}
	for _, doc := range bad {
		if accepted, _ := feed(doc); accepted {
			t.Errorf("accepted invalid escape %q", doc)
		}
	}
	// After exactly 4 hex digits the string goes on: trailing bytes and
	// the closing quote behave normally.
	if accepted, done := feed(`"\` + `u12aBg"`); !accepted || !done {
		t.Errorf("rejected valid post-escape continuation")
	}
	// A \uXXXX escape in an object key keeps key handling intact.
	if accepted, done := feed(`{"\` + `u0041":1}`); !accepted || !done {
		t.Errorf("rejected \\u escape in object key")
	}
	// Mid-escape, only hex digits continue the text.
	v := token.NewVocab()
	c := NewJSONConstraint(NewLexicon(v, []string{`"`, `\u12`, "3", "g", "4"}))
	for _, s := range []string{`"`, `\u12`} {
		if err := c.Accept(v.Intern(s)); err != nil {
			t.Fatalf("accept %q: %v", s, err)
		}
	}
	if got, want := c.Allowed(), []token.ID{v.Intern("3"), v.Intern("4")}; !slices.Equal(got, want) {
		t.Errorf("allowed mid-escape = %v, want %v", got, want)
	}
}

// TestJSONMachineDepthBound holds nesting to encoding/json's limit of
// 10,000 containers.
func TestJSONMachineDepthBound(t *testing.T) {
	deep := strings.Repeat("[", 10000)
	if !viableJSON([]byte(deep)) {
		t.Fatal("refused nesting 10,000 deep")
	}
	if !json.Valid([]byte(deep + strings.Repeat("]", 10000))) {
		t.Fatal("a document nested 10,000 deep is not complete")
	}
	if viableJSON([]byte(deep + "[")) {
		t.Fatal("exceeded depth bound")
	}
}

// TestJSONMachineCloneIndependence checks that Allowed's probes, which
// extend the accepted text in place, leave it as it was.
func TestJSONMachineCloneIndependence(t *testing.T) {
	v := token.NewVocab()
	c := NewJSONConstraint(JSONLexicon(v, "a", "x"))
	for _, s := range []string{"{", "\"", "a", "\"", ":"} {
		if err := c.Accept(v.Intern(s)); err != nil {
			t.Fatalf("accept %q: %v", s, err)
		}
	}
	if len(c.Allowed()) == 0 || c.Done() {
		t.Fatal("no continuation, or done, after {\"a\":")
	}
	for _, s := range []string{"\"", "x", "\"", "}"} {
		if err := c.Accept(v.Intern(s)); err != nil {
			t.Fatalf("accept %q after probing: %v", s, err)
		}
	}
	if string(c.text) != `{"a":"x"}` || !c.Done() {
		t.Fatalf("text after probing = %q", c.text)
	}
}

// Property: documents stdlib json writes are accepted and complete.
func TestJSONMachineAgainstStdlibProperty(t *testing.T) {
	f := func(obj map[string]int, arr []string) bool {
		blob, err := json.Marshal(map[string]any{"o": obj, "a": arr})
		if err != nil {
			return true
		}
		v := token.NewVocab()
		c := NewJSONConstraint(NewLexicon(v, []string{string(blob)}))
		return c.Accept(v.Intern(string(blob))) == nil && c.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONConstraintProducesParseableOutput(t *testing.T) {
	v := token.NewVocab()
	lex := JSONLexicon(v, "name", "size")
	c := NewJSONConstraint(lex)
	// Walk a scripted document through Accept; every step must be allowed.
	doc := []string{"{", "\"", "name", "\"", ":", "\"", "size", "\"", ",", "\"", "size", "\"", ":", "4", "2", "}"}
	var text string
	for _, s := range doc {
		id := v.Intern(s)
		ok := false
		for _, a := range c.Allowed() {
			if a == id {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("token %q not allowed at %q", s, text)
		}
		if err := c.Accept(id); err != nil {
			t.Fatalf("accept %q: %v", s, err)
		}
		text += s
	}
	if !c.Done() {
		t.Fatalf("document %q not done", text)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(text), &out); err != nil {
		t.Fatalf("constrained output %q not parseable: %v", text, err)
	}
}

func TestJSONConstraintAllowedNeverEmpty(t *testing.T) {
	// From any reachable non-complete state, the lexicon must offer a
	// continuation (no dead ends), so constrained generation cannot stick.
	v := token.NewVocab()
	lex := JSONLexicon(v, "key")
	c := NewJSONConstraint(lex)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 200 && !c.Done(); step++ {
		allowed := c.Allowed()
		if len(allowed) == 0 {
			t.Fatal("constraint stuck")
		}
		if err := c.Accept(allowed[rng.Intn(len(allowed))]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLexiconDedup(t *testing.T) {
	v := token.NewVocab()
	lex := NewLexicon(v, []string{"a", "b", "a", ""})
	if len(lex.ids) != 2 || len(lex.strs) != 2 {
		t.Fatalf("size = %d ids, %d strings", len(lex.ids), len(lex.strs))
	}
	if s, ok := lex.strs[v.Intern("a")]; !ok || s != "a" {
		t.Fatal("lookup failed")
	}
	if _, ok := lex.strs[12345]; ok {
		t.Fatal("phantom lexicon entry")
	}
}
