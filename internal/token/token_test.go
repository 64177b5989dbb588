package token

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// encodeRunes is Encode as it stood before it walked text in place: the
// text converted to runes, and each token copied out and interned on its
// own. It is the reference FuzzEncodeEqualsRuneLoop holds Encode to.
func encodeRunes(v *Vocab, text string) []ID {
	var out []ID
	runes := []rune(text)
	for i := 0; i < len(runes); {
		c := classify(runes[i])
		j := i + 1
		if c != classPunct {
			for j < len(runes) && classify(runes[j]) == c {
				j++
			}
		}
		out = append(out, v.Intern(string(runes[i:j])))
		i = j
	}
	return out
}

// dictionaryText joins n words with single spaces: 2n-1 tokens.
func dictionaryText(n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%04d", i)
	}
	return strings.Join(words, " ")
}

func TestSpecialsPresent(t *testing.T) {
	v := NewVocab()
	if v.Size() != int(numSpecials) {
		t.Fatalf("fresh vocab size = %d, want %d", v.Size(), numSpecials)
	}
	if v.String(EOS) != "<eos>" {
		t.Errorf("EOS renders as %q", v.String(EOS))
	}
	if !IsSpecial(1) || IsSpecial(numSpecials) {
		t.Error("IsSpecial boundary wrong")
	}
}

func TestInternStable(t *testing.T) {
	v := NewVocab()
	a := v.Intern("hello")
	b := v.Intern("world")
	if a == b {
		t.Fatal("distinct strings share an ID")
	}
	if v.Intern("hello") != a {
		t.Fatal("re-intern changed ID")
	}
	if v.String(a) != "hello" {
		t.Fatalf("String(%d) = %q", a, v.String(a))
	}
}

func TestUnknownIDRendersPseudoWord(t *testing.T) {
	v := NewVocab()
	s := v.String(99999)
	if s == "" || !strings.HasSuffix(s, " ") {
		t.Fatalf("pseudo-word %q malformed", s)
	}
	if v.String(99999) != s {
		t.Fatal("pseudo-word not stable")
	}
	if v.String(99998) == s {
		t.Fatal("adjacent IDs render identically")
	}
	if !strings.Contains(v.String(-1), "⟨") {
		t.Fatalf("negative ID placeholder missing: %q", v.String(-1))
	}
}

func TestEncodeSegmentation(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	ids := tok.Encode("foo_bar42, baz!")
	var got []string
	for _, id := range ids {
		got = append(got, tok.Vocab().String(id))
	}
	want := []string{"foo_bar42", ",", " ", "baz", "!"}
	if len(got) != len(want) {
		t.Fatalf("segments = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRoundTripExamples(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	cases := []string{
		"",
		"hello world",
		"  leading and trailing  ",
		"tabs\tand\nnewlines",
		"punct!!!...(nested [brackets])",
		"unicode: héllo wörld — em-dash",
		"数字と漢字 mixed 123",
	}
	for _, c := range cases {
		if got := tok.Decode(tok.Encode(c)); got != c {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	f := func(s string) bool {
		return tok.Decode(tok.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSkipsSpecials(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	ids := append([]ID{1}, tok.Encode("hi")...) // <bos>
	ids = append(ids, EOS)
	if got := tok.Decode(ids); got != "hi" {
		t.Fatalf("Decode with specials = %q", got)
	}
}

func TestConcurrentIntern(t *testing.T) {
	v := NewVocab()
	var wg sync.WaitGroup
	ids := make([]ID, 64)
	for i := range ids {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = v.Intern("shared")
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatal("concurrent Intern returned different IDs for same string")
		}
	}
}

// FuzzEncodeEqualsRuneLoop: on arbitrary bytes, and a vocabulary that
// already holds some of their tokens, Encode returns the IDs encodeRunes
// does and interns the same strings in the same order, both when it must
// intern and when every token is known.
func FuzzEncodeEqualsRuneLoop(f *testing.F) {
	f.Add("hello world", []byte("hello, new world!"))
	f.Add("", []byte("unicode: h\u00e9llo w\u00f6rld \u2014 \u6570\u5b57 123"))
	f.Add("a \xff", []byte("a\xffb\xc3 \xed\xa0\x80\xef\xbf\xbd\t\n  x_1"))
	f.Add("x", []byte("\xf0\x9f\x98"))
	f.Fuzz(func(t *testing.T, seed string, text []byte) {
		got, want := NewVocab(), NewVocab()
		for _, v := range []*Vocab{got, want} {
			v.Intern(" ")
			v.Intern("results")
			encodeRunes(v, seed)
		}
		tok := NewTokenizer(got)
		for pass := 0; pass < 2; pass++ {
			ids, ref := tok.Encode(string(text)), encodeRunes(want, string(text))
			if len(ids) != len(ref) {
				t.Fatalf("pass %d: %d tokens, reference %d", pass, len(ids), len(ref))
			}
			for i := range ref {
				if ids[i] != ref[i] {
					t.Fatalf("pass %d: token %d is ID %d, reference %d", pass, i, ids[i], ref[i])
				}
			}
			if got.Size() != want.Size() {
				t.Fatalf("pass %d: Size %d, reference %d", pass, got.Size(), want.Size())
			}
			for id := ID(0); int(id) < got.Size(); id++ {
				if got.String(id) != want.String(id) {
					t.Fatalf("pass %d: String(%d) = %q, reference %q", pass, id, got.String(id), want.String(id))
				}
			}
		}
	})
}

// TestEncodeAllocs: a text whose tokens are all interned costs one
// allocation, the result; the empty text costs none.
func TestEncodeAllocs(t *testing.T) {
	text := dictionaryText(512)
	tok := NewTokenizer(NewVocab())
	tok.Encode(text)
	if n := testing.AllocsPerRun(100, func() { tok.Encode(text) }); n != 1 {
		t.Fatalf("Encode of interned text: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { tok.Encode("") }); n != 0 {
		t.Fatalf("Encode of empty text: %v allocs, want 0", n)
	}
}

// TestEncodeDoesNotRetainText: a token Encode interns is a copy, so the
// vocabulary never keeps the text it came from alive.
func TestEncodeDoesNotRetainText(t *testing.T) {
	text := strings.Repeat("alpha beta, ", 3) + "gamma"
	v := NewVocab()
	NewTokenizer(v).Encode(text)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	if v.Size() == int(numSpecials) {
		t.Fatal("nothing interned")
	}
	for id := numSpecials; int(id) < v.Size(); id++ {
		p := uintptr(unsafe.Pointer(unsafe.StringData(v.String(id))))
		if p >= lo && p < hi {
			t.Fatalf("token %d (%q) aliases the encoded text", id, v.String(id))
		}
	}
}

// TestInvalidUTF8EncodesAsReplacement: each byte that is not valid UTF-8
// is its own token "\uFFFD", as []rune conversion reads it, so such text
// does not round-trip; it decodes to string([]rune(text)).
func TestInvalidUTF8EncodesAsReplacement(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	const text = "a\xffb\xc3 \xed\xa0\x80"
	ids := tok.Encode(text)
	var got []string
	for _, id := range ids {
		got = append(got, tok.Vocab().String(id))
	}
	want := []string{"a", "\uFFFD", "b", "\uFFFD", " ", "\uFFFD", "\uFFFD", "\uFFFD"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("segments = %q, want %q", got, want)
	}
	if ids[1] != ids[3] || ids[1] != tok.Vocab().ids["\uFFFD"] {
		t.Fatalf("replacement tokens have IDs %d, %d, want %d", ids[1], ids[3], tok.Vocab().ids["\uFFFD"])
	}
	if got := tok.Decode(ids); got != string([]rune(text)) || got == text {
		t.Fatalf("Decode = %q, want %q", got, string([]rune(text)))
	}
}

var encodeSink []ID

// BenchmarkEncode is the per-layer cost of tokenizing a prompt whose
// tokens are all interned: about a thousand tokens of dictionary text.
func BenchmarkEncode(b *testing.B) {
	text := dictionaryText(512)
	tok := NewTokenizer(NewVocab())
	n := len(tok.Encode(text))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = tok.Encode(text)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tok")
}

// TestConcurrentEncode: callers that intern overlapping texts at once
// agree on every token's ID, and each distinct token is interned once.
func TestConcurrentEncode(t *testing.T) {
	tok := NewTokenizer(NewVocab())
	texts := []string{dictionaryText(64), dictionaryText(96), "w0001, w0002! new words"}
	var wg sync.WaitGroup
	got := make([][]ID, 32)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tok.Encode(texts[i%len(texts)])
		}()
	}
	wg.Wait()
	want := NewVocab()
	for _, text := range texts {
		encodeRunes(want, text)
	}
	if tok.Vocab().Size() != want.Size() {
		t.Fatalf("Size %d after concurrent encodes, want %d", tok.Vocab().Size(), want.Size())
	}
	for i, ids := range got {
		if s := tok.Decode(ids); s != texts[i%len(texts)] {
			t.Fatalf("caller %d decodes %q", i, s)
		}
	}
}
