package grammar

import (
	"fmt"

	"repro/internal/token"
)

// jsonMode enumerates the incremental validator's states.
type jsonMode int

const (
	jmValue         jsonMode = iota // expecting the start of a value
	jmArrValOrClose                 // inside [, expecting a value or ]
	jmString                        // inside a string
	jmStringEsc                     // after a backslash in a string
	jmStringHex                     // inside the 4 hex digits of \uXXXX
	jmNumber                        // inside a number
	jmLiteral                       // inside true/false/null
	jmAfterValue                    // a value just ended
	jmObjKeyOrClose                 // inside {, expecting a key or }
	jmObjKeyReq                     // after , in an object: key required
	jmObjColon                      // after a key: expecting :
	jmFail
)

// maxJSONDepth bounds container nesting.
const maxJSONDepth = 64

// numState tracks position within the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? (leading-zero rule
// intentionally relaxed).
type numState int

const (
	numNeg   numState = iota // after '-': digit required
	numInt                   // in the integer part (complete)
	numDot                   // after '.': digit required
	numFrac                  // in the fraction (complete)
	numE                     // after e/E: digit or sign required
	numESign                 // after the exponent sign: digit required
	numExp                   // in the exponent (complete)
)

// JSONMachine validates JSON one byte at a time: Step reports whether the
// byte can extend some valid JSON document, and Complete reports whether
// the bytes so far already form one. It is the pushdown automaton behind
// JSONConstraint.
type JSONMachine struct {
	mode   jsonMode
	stack  []byte // '{' or '['
	lit    string
	litPos int
	key    bool // current string is an object key
	num    numState
	hex    int // hex digits consumed of a \uXXXX escape
}

// NewJSONMachine returns a machine expecting one JSON value.
func NewJSONMachine() *JSONMachine { return &JSONMachine{mode: jmValue} }

// Clone returns an independent copy.
func (m *JSONMachine) Clone() *JSONMachine {
	c := *m
	c.stack = append([]byte(nil), m.stack...)
	return &c
}

func isWS(b byte) bool    { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }
func isDigit(b byte) bool { return b >= '0' && b <= '9' }
func isHex(b byte) bool {
	return isDigit(b) || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}

// Step consumes one byte, returning false (and entering a dead state) if
// no valid JSON document starts with the bytes seen so far plus b.
func (m *JSONMachine) Step(b byte) bool {
	if m.mode == jmFail {
		return false
	}
	ok := m.step(b)
	if !ok {
		m.mode = jmFail
	}
	return ok
}

// StepString consumes all bytes of s.
func (m *JSONMachine) StepString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !m.Step(s[i]) {
			return false
		}
	}
	return true
}

func (m *JSONMachine) step(b byte) bool {
	switch m.mode {
	case jmValue, jmArrValOrClose:
		if isWS(b) {
			return true
		}
		if m.mode == jmArrValOrClose && b == ']' {
			return m.pop('[')
		}
		switch {
		case b == '"':
			m.mode = jmString
			return true
		case b == '{':
			if len(m.stack) >= maxJSONDepth {
				return false
			}
			m.stack = append(m.stack, '{')
			m.mode = jmObjKeyOrClose
			return true
		case b == '[':
			if len(m.stack) >= maxJSONDepth {
				return false
			}
			m.stack = append(m.stack, '[')
			m.mode = jmArrValOrClose
			return true
		case b == '-':
			m.mode, m.num = jmNumber, numNeg
			return true
		case isDigit(b):
			m.mode, m.num = jmNumber, numInt
			return true
		case b == 't':
			m.mode, m.lit, m.litPos = jmLiteral, "true", 1
			return true
		case b == 'f':
			m.mode, m.lit, m.litPos = jmLiteral, "false", 1
			return true
		case b == 'n':
			m.mode, m.lit, m.litPos = jmLiteral, "null", 1
			return true
		}
		return false

	case jmString:
		switch {
		case b == '"':
			if m.key {
				m.key = false
				m.mode = jmObjColon
				return true
			}
			m.endValue()
			return true
		case b == '\\':
			m.mode = jmStringEsc
			return true
		case b < 0x20:
			return false
		}
		return true

	case jmStringEsc:
		switch b {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			m.mode = jmString
			return true
		case 'u':
			m.mode, m.hex = jmStringHex, 0
			return true
		}
		return false

	case jmStringHex:
		if isHex(b) {
			m.hex++
			if m.hex == 4 {
				m.mode = jmString
			}
			return true
		}
		return false

	case jmNumber:
		switch m.num {
		case numNeg:
			if isDigit(b) {
				m.num = numInt
				return true
			}
			return false
		case numInt:
			switch {
			case isDigit(b):
				return true
			case b == '.':
				m.num = numDot
				return true
			case b == 'e' || b == 'E':
				m.num = numE
				return true
			}
		case numDot:
			if isDigit(b) {
				m.num = numFrac
				return true
			}
			return false
		case numFrac:
			switch {
			case isDigit(b):
				return true
			case b == 'e' || b == 'E':
				m.num = numE
				return true
			}
		case numE:
			if isDigit(b) {
				m.num = numExp
				return true
			}
			if b == '+' || b == '-' {
				m.num = numESign
				return true
			}
			return false
		case numESign:
			if isDigit(b) {
				m.num = numExp
				return true
			}
			return false
		case numExp:
			if isDigit(b) {
				return true
			}
		}
		// A complete number has no terminator; it ends at the first
		// foreign byte, which must be valid in after-value position.
		if !m.numComplete() {
			return false
		}
		m.endValue()
		return m.step(b)

	case jmLiteral:
		if m.litPos < len(m.lit) && b == m.lit[m.litPos] {
			m.litPos++
			if m.litPos == len(m.lit) {
				m.endValue()
			}
			return true
		}
		return false

	case jmAfterValue:
		if isWS(b) {
			return true
		}
		if len(m.stack) == 0 {
			return false // trailing garbage after a complete document
		}
		top := m.stack[len(m.stack)-1]
		switch {
		case b == ',' && top == '{':
			m.mode = jmObjKeyReq
			return true
		case b == ',' && top == '[':
			m.mode = jmValue
			return true
		case b == '}' && top == '{':
			return m.pop('{')
		case b == ']' && top == '[':
			return m.pop('[')
		}
		return false

	case jmObjKeyOrClose:
		if isWS(b) {
			return true
		}
		if b == '}' {
			return m.pop('{')
		}
		if b == '"' {
			m.key = true
			m.mode = jmString
			return true
		}
		return false

	case jmObjKeyReq:
		if isWS(b) {
			return true
		}
		if b == '"' {
			m.key = true
			m.mode = jmString
			return true
		}
		return false

	case jmObjColon:
		if isWS(b) {
			return true
		}
		if b == ':' {
			m.mode = jmValue
			return true
		}
		return false
	}
	return false
}

func (m *JSONMachine) pop(want byte) bool {
	if len(m.stack) == 0 || m.stack[len(m.stack)-1] != want {
		return false
	}
	m.stack = m.stack[:len(m.stack)-1]
	m.endValue()
	return true
}

func (m *JSONMachine) endValue() {
	m.mode = jmAfterValue
}

func (m *JSONMachine) numComplete() bool {
	return m.num == numInt || m.num == numFrac || m.num == numExp
}

// Complete reports whether the bytes consumed so far form a full JSON
// document (a bare number is complete as soon as its grammar allows
// stopping).
func (m *JSONMachine) Complete() bool {
	if len(m.stack) != 0 {
		return false
	}
	return m.mode == jmAfterValue || (m.mode == jmNumber && m.numComplete())
}

// JSONConstraint forces generated text to be valid JSON, choosing from a
// lexicon. It implements lip.Constraint.
type JSONConstraint struct {
	m   *JSONMachine
	lex *Lexicon
}

// NewJSONConstraint returns a constraint over the lexicon.
//
//lint:allow testonly library surface: examples/constrained_test.go shows JSON-constrained generation
func NewJSONConstraint(lex *Lexicon) *JSONConstraint {
	return &JSONConstraint{m: NewJSONMachine(), lex: lex}
}

// Allowed returns lexicon tokens that extend some valid JSON document.
func (c *JSONConstraint) Allowed() []token.ID {
	var out []token.ID
	for _, id := range c.lex.ids {
		probe := c.m.Clone()
		if probe.StepString(c.lex.strs[id]) {
			out = append(out, id)
		}
	}
	return out
}

// Accept advances the machine by tok's surface string.
func (c *JSONConstraint) Accept(tok token.ID) error {
	s, ok := c.lex.strs[tok]
	if !ok {
		return fmt.Errorf("grammar: token %d not in lexicon", tok)
	}
	if !c.m.StepString(s) {
		return fmt.Errorf("grammar: token %q breaks JSON", s)
	}
	return nil
}

// Done reports whether the output is a complete JSON document.
func (c *JSONConstraint) Done() bool { return c.m.Complete() }
