package grammar

import (
	"fmt"

	"repro/internal/token"
)

// Lexicon is the candidate token inventory a constraint chooses from. Real
// constrained decoders mask the model's full vocabulary; the simulated
// model's vocabulary is synthetic, so programs declare the surface strings
// their format is built from (digits, punctuation, keywords, field names)
// and the constraint lifts its automaton to that token set.
type Lexicon struct {
	ids  []token.ID
	strs map[token.ID]string
}

// NewLexicon interns the given strings into v and returns the lexicon over
// them. Duplicates are ignored.
func NewLexicon(v *token.Vocab, words []string) *Lexicon {
	l := &Lexicon{strs: make(map[token.ID]string, len(words))}
	for _, w := range words {
		if w == "" {
			continue
		}
		id := v.Intern(w)
		if _, ok := l.strs[id]; ok {
			continue
		}
		l.ids = append(l.ids, id)
		l.strs[id] = w
	}
	return l
}

// JSONLexicon returns a lexicon with the structural tokens, digits, and
// letters JSON output needs, plus the given extra words (e.g. field names).
//
//lint:allow testonly library surface: examples/constrained_test.go shows JSON-constrained generation
func JSONLexicon(v *token.Vocab, extra ...string) *Lexicon {
	words := []string{
		"{", "}", "[", "]", ":", ",", "\"", " ",
		"true", "false", "null", "-", ".",
	}
	for d := 0; d <= 9; d++ {
		words = append(words, fmt.Sprint(d))
	}
	words = append(words, extra...)
	return NewLexicon(v, words)
}

// RegexConstraint forces generated text to match a regular expression. It
// implements lip.Constraint.
type RegexConstraint struct {
	re    *Regex
	lex   *Lexicon
	state []uint32
}

// NewRegexConstraint compiles pattern over the lexicon.
func NewRegexConstraint(pattern string, lex *Lexicon) (*RegexConstraint, error) {
	re, err := CompileRegex(pattern)
	if err != nil {
		return nil, err
	}
	return &RegexConstraint{re: re, lex: lex, state: re.Start()}, nil
}

// Allowed returns the lexicon tokens whose surface string keeps a match
// reachable from the current state.
func (c *RegexConstraint) Allowed() []token.ID {
	var out []token.ID
	for _, id := range c.lex.ids {
		if len(c.re.Step(c.state, c.lex.strs[id])) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// Accept advances the automaton by tok's surface string.
func (c *RegexConstraint) Accept(tok token.ID) error {
	s, ok := c.lex.strs[tok]
	if !ok {
		return fmt.Errorf("grammar: token %d not in lexicon", tok)
	}
	next := c.re.Step(c.state, s)
	if len(next) == 0 {
		return fmt.Errorf("grammar: token %q rejected by pattern", s)
	}
	c.state = next
	return nil
}

// Done reports whether the text so far is a complete match.
func (c *RegexConstraint) Done() bool { return c.re.Accepting(c.state) }
