package grammar

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/token"
)

// JSONConstraint forces generated text to be valid JSON, choosing from a
// lexicon. It implements lip.Constraint. It holds the accepted text and
// asks encoding/json's scanner about each extension (see viableJSON).
type JSONConstraint struct {
	text []byte
	lex  *Lexicon
}

// NewJSONConstraint returns a constraint over the lexicon.
//
//lint:allow testonly library surface: examples/constrained_test.go shows JSON-constrained generation
func NewJSONConstraint(lex *Lexicon) *JSONConstraint {
	return &JSONConstraint{lex: lex}
}

// viableJSON reports whether text extends to some JSON document. NUL is
// never valid JSON, so the scanner reaches a NUL appended to text, and
// reports its syntax error at that byte, exactly when every byte before it
// is viable.
func viableJSON(text []byte) bool {
	var serr *json.SyntaxError
	err := json.Unmarshal(append(text, 0), new(json.RawMessage))
	return errors.As(err, &serr) && serr.Offset == int64(len(text))+1
}

// Allowed returns lexicon tokens that extend some valid JSON document.
func (c *JSONConstraint) Allowed() []token.ID {
	var out []token.ID
	for _, id := range c.lex.ids {
		if viableJSON(append(c.text, c.lex.strs[id]...)) {
			out = append(out, id)
		}
	}
	return out
}

// Accept extends the text by tok's surface string.
func (c *JSONConstraint) Accept(tok token.ID) error {
	s, ok := c.lex.strs[tok]
	if !ok {
		return fmt.Errorf("grammar: token %d not in lexicon", tok)
	}
	next := append(c.text, s...)
	if !viableJSON(next) {
		return fmt.Errorf("grammar: token %q breaks JSON", s)
	}
	c.text = next
	return nil
}

// Done reports whether the output is a complete JSON document.
func (c *JSONConstraint) Done() bool { return json.Valid(c.text) }
