package grammar

import (
	"encoding/json"
	"math/rand"
	"regexp"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

func mustCompile(t *testing.T, pattern string) *DFA {
	t.Helper()
	d, err := CompileRegex(pattern)
	if err != nil {
		t.Fatalf("CompileRegex(%q): %v", pattern, err)
	}
	return d
}

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
			if !d.Match(s) {
				t.Errorf("%q should match %q", c.pattern, s)
			}
		}
		for _, s := range c.no {
			if d.Match(s) {
				t.Errorf("%q should not match %q", c.pattern, s)
			}
		}
	}
}

func TestRegexErrors(t *testing.T) {
	for _, p := range []string{"(", "(ab", "[a-", "[abc", "a)", "*a", "+", "?x", "a|*", `\`, "[z-a]"} {
		if _, err := CompileRegex(p); err == nil {
			t.Errorf("CompileRegex(%q) succeeded", p)
		}
	}
}

// TestRegexAgainstStdlib cross-validates the DFA against the standard
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
			if got, want := d.Match(s), std.MatchString(s); got != want {
				t.Fatalf("pattern %q input %q: dfa=%v stdlib=%v", p, s, got, want)
			}
		}
	}
}

func TestRegexAliveStatePruning(t *testing.T) {
	// After "b" the pattern "ab" can never match; Step must report Dead
	// immediately, not at the end of input.
	d := mustCompile(t, "ab")
	if st := d.Step(d.Start(), 'b'); st != Dead {
		t.Fatalf("step into dead prefix = %d", st)
	}
	// "a" leads to a state from which accept is reachable.
	if st := d.Step(d.Start(), 'a'); st == Dead {
		t.Fatal("live prefix reported dead")
	}
}

func TestDFAStateBudget(t *testing.T) {
	// (a|b)*a(a|b)^20 needs ~2^20 DFA states; must fail, not hang.
	p := "(a|b)*a"
	for i := 0; i < 20; i++ {
		p += "(a|b)"
	}
	if _, err := CompileRegex(p); err == nil {
		t.Fatal("state explosion not caught")
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

func TestJSONMachineAcceptsValidDocuments(t *testing.T) {
	docs := []string{
		`{}`, `[]`, `"hi"`, `42`, `-3.5e+10`, `true`, `false`, `null`,
		`{"a":1}`, `{"a":[1,2,{"b":null}],"c":"x"}`,
		` { "k" : [ true , false ] } `,
		`"esc \" and \\ and \n"`,
		`"\/\b\f\r\t"`,
		`"\` + `u0041"`, `"a\` + `u00e9b"`, `{"\` + `u002Fkey":"\` + `uABCD"}`,
		`[[[[1]]]]`,
	}
	for _, doc := range docs {
		m := NewJSONMachine()
		if !m.StepString(doc) {
			t.Errorf("rejected valid %q", doc)
			continue
		}
		if !m.Complete() {
			t.Errorf("valid %q not complete", doc)
		}
	}
}

func TestJSONMachineRejectsInvalid(t *testing.T) {
	bad := []string{
		`{`, `{,`, `{"a"}`, `{"a":}`, `[1,]x`, `{"a":1,}`, "tru ", `nul!`,
		`1 2`, `{} {}`, `[1 2]`, `{"a" 1}`, `--1`, `+1`, `.`,
	}
	for _, doc := range bad {
		m := NewJSONMachine()
		if m.StepString(doc) && m.Complete() {
			t.Errorf("accepted invalid %q as complete", doc)
		}
	}
	// Hard rejections: the machine must die mid-string.
	for _, doc := range []string{`}`, `]`, `:`, `,`, `x`} {
		m := NewJSONMachine()
		if m.StepString(doc) {
			t.Errorf("did not reject %q", doc)
		}
	}
}

func TestJSONMachineStringEscapes(t *testing.T) {
	// Invalid escapes must kill the machine at the offending byte, not
	// pass as ordinary string content.
	bad := []string{
		`"\q"`,          // not in the escape set
		`"\x41"`,        // hex escape is not JSON
		`"\u12"`,        // too few hex digits before the closing quote
		`"\u12g4"`,      // non-hex digit
		`"\u"`,          // no digits at all
		`{"\uZZZZ"`,     // bad hex in a key
		`"\` + `u12aBg`, // 4 valid digits, then g continues as an ordinary string byte
	}
	for _, doc := range bad[:6] {
		m := NewJSONMachine()
		if m.StepString(doc) {
			t.Errorf("accepted invalid escape %q", doc)
		}
	}
	// After exactly 4 hex digits the machine returns to ordinary string
	// mode: trailing bytes and the closing quote behave normally.
	m := NewJSONMachine()
	if !m.StepString(bad[6]+`"`) || !m.Complete() {
		t.Errorf("rejected valid post-escape continuation")
	}
	// A \uXXXX escape in an object key keeps key handling intact.
	m = NewJSONMachine()
	if !m.StepString(`{"\`+`u0041":1}`) || !m.Complete() {
		t.Errorf("rejected \\u escape in object key")
	}
	// Clone independence extends to mid-escape state.
	m = NewJSONMachine()
	m.StepString(`"\u12`)
	c := m.Clone()
	if !c.StepString(`34"`) || !c.Complete() {
		t.Error("clone failed to finish escape")
	}
	if m.StepString(`"`) {
		t.Error("parent accepted quote mid-escape after clone")
	}
}

func TestJSONMachineDepthBound(t *testing.T) {
	m := NewJSONMachine()
	for i := 0; i < maxJSONDepth; i++ {
		if !m.Step('[') {
			t.Fatalf("died at depth %d", i)
		}
	}
	if m.Step('[') {
		t.Fatal("exceeded depth bound")
	}
}

func TestJSONMachineCloneIndependence(t *testing.T) {
	m := NewJSONMachine()
	m.StepString(`{"a":`)
	c := m.Clone()
	if !c.StepString(`1}`) || !c.Complete() {
		t.Fatal("clone failed to finish")
	}
	if m.Complete() {
		t.Fatal("clone leaked into parent")
	}
	if !m.StepString(`"x"}`) || !m.Complete() {
		t.Fatal("parent corrupted by clone")
	}
}

// Property: every prefix of a document the machine accepts keeps it
// non-failed, and documents stdlib json accepts are accepted.
func TestJSONMachineAgainstStdlibProperty(t *testing.T) {
	f := func(obj map[string]int, arr []string) bool {
		blob, err := json.Marshal(map[string]any{"o": obj, "a": arr})
		if err != nil {
			return true
		}
		m := NewJSONMachine()
		if !m.StepString(string(blob)) {
			return false
		}
		return m.Complete()
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
