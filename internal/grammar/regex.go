// Package grammar implements constrained decoding for LIPs (paper §2.3,
// §4.1): deterministic automata that, intersected with the model's
// next-token distribution via Dist.Mask, force generated text to follow a
// format.
//
// Serving stacks like XGrammar, Outlines, and Guidance bake a fixed set of
// such decoders into the server; Symphony's claim is that, given full
// access to the distribution, they are expressible as ordinary user code.
// This package provides three: a regex engine (parsed to an NFA, subset-
// constructed to a byte-level DFA, lifted to token masks through a
// Lexicon), a token-trie choice constraint, and an incremental JSON
// validator.
package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// byteSet is a 256-bit set of byte values.
type byteSet [4]uint64

func (s *byteSet) add(b byte) { s[b>>6] |= 1 << (b & 63) }
func (s *byteSet) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		s.add(byte(b))
	}
}
func (s *byteSet) has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }
func (s *byteSet) negate() {
	for i := range s {
		s[i] = ^s[i]
	}
}

// --- syntax tree ---

type reNode interface{ String() string }

type reLit struct{ set byteSet }
type reConcat struct{ parts []reNode }
type reAlt struct{ opts []reNode }
type reStar struct {
	sub reNode
	min int // 0 for *, 1 for +
}
type reOpt struct{ sub reNode }
type reEmpty struct{}

func (reLit) String() string    { return "lit" }
func (reConcat) String() string { return "cat" }
func (reAlt) String() string    { return "alt" }
func (reStar) String() string   { return "star" }
func (reOpt) String() string    { return "opt" }
func (reEmpty) String() string  { return "empty" }

// parser is a recursive-descent parser over the supported regex subset:
// literals, escapes (\d \w \s \n \t and escaped metacharacters), '.',
// character classes with ranges and negation, grouping, alternation, and
// the *, +, ? repetitions. Matches are whole-string (implicitly anchored).
type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }
func (p *parser) next() byte { b := p.src[p.pos]; p.pos++; return b }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("grammar: regex %q at %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseAlt() (reNode, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	opts := []reNode{first}
	for !p.eof() && p.peek() == '|' {
		p.next()
		n, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		opts = append(opts, n)
	}
	if len(opts) == 1 {
		return first, nil
	}
	return reAlt{opts: opts}, nil
}

func (p *parser) parseConcat() (reNode, error) {
	var parts []reNode
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	switch len(parts) {
	case 0:
		return reEmpty{}, nil
	case 1:
		return parts[0], nil
	}
	return reConcat{parts: parts}, nil
}

func (p *parser) parseRepeat() (reNode, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.next()
			atom = reStar{sub: atom, min: 0}
		case '+':
			p.next()
			atom = reStar{sub: atom, min: 1}
		case '?':
			p.next()
			atom = reOpt{sub: atom}
		default:
			return atom, nil
		}
	}
	return atom, nil
}

func (p *parser) parseAtom() (reNode, error) {
	if p.eof() {
		return nil, p.errf("unexpected end")
	}
	switch b := p.next(); b {
	case '(':
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.next() != ')' {
			return nil, p.errf("unclosed group")
		}
		return n, nil
	case '[':
		return p.parseClass()
	case '.':
		var s byteSet
		s.negate()
		return reLit{set: s}, nil
	case '\\':
		return p.parseEscape()
	case '*', '+', '?', ')', ']', '|':
		return nil, p.errf("unexpected %q", b)
	default:
		var s byteSet
		s.add(b)
		return reLit{set: s}, nil
	}
}

func escapeSet(b byte) (byteSet, bool) {
	var s byteSet
	switch b {
	case 'd':
		s.addRange('0', '9')
	case 'w':
		s.addRange('a', 'z')
		s.addRange('A', 'Z')
		s.addRange('0', '9')
		s.add('_')
	case 's':
		for _, c := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			s.add(c)
		}
	case 'n':
		s.add('\n')
	case 't':
		s.add('\t')
	case 'r':
		s.add('\r')
	default:
		return s, false
	}
	return s, true
}

func (p *parser) parseEscape() (reNode, error) {
	if p.eof() {
		return nil, p.errf("dangling escape")
	}
	b := p.next()
	if s, ok := escapeSet(b); ok {
		return reLit{set: s}, nil
	}
	// Escaped metacharacter or literal.
	var s byteSet
	s.add(b)
	return reLit{set: s}, nil
}

func (p *parser) parseClass() (reNode, error) {
	var s byteSet
	neg := false
	if !p.eof() && p.peek() == '^' {
		neg = true
		p.next()
	}
	for {
		if p.eof() {
			return nil, p.errf("unclosed class")
		}
		b := p.next()
		if b == ']' {
			break
		}
		if b == '\\' {
			if p.eof() {
				return nil, p.errf("dangling escape in class")
			}
			e := p.next()
			if es, ok := escapeSet(e); ok {
				for i := 0; i < 256; i++ {
					if es.has(byte(i)) {
						s.add(byte(i))
					}
				}
				continue
			}
			b = e
		}
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.next() // '-'
			hi := p.next()
			if hi == '\\' {
				if p.eof() {
					return nil, p.errf("dangling escape in class")
				}
				hi = p.next()
			}
			if hi < b {
				return nil, p.errf("inverted range %c-%c", b, hi)
			}
			s.addRange(b, hi)
			continue
		}
		s.add(b)
	}
	if neg {
		s.negate()
	}
	return reLit{set: s}, nil
}

// --- NFA (Thompson construction) ---

type nfaState struct {
	eps []int
	set byteSet
	to  int // byte-edge target; -1 if none
}

type nfa struct {
	states []nfaState
	start  int
	accept int
}

func (n *nfa) add() int {
	n.states = append(n.states, nfaState{to: -1})
	return len(n.states) - 1
}

func (n *nfa) build(node reNode) (start, end int) {
	switch t := node.(type) {
	case reEmpty:
		s := n.add()
		return s, s
	case reLit:
		s, e := n.add(), n.add()
		n.states[s].set = t.set
		n.states[s].to = e
		return s, e
	case reConcat:
		start, end = n.build(t.parts[0])
		for _, part := range t.parts[1:] {
			s2, e2 := n.build(part)
			n.states[end].eps = append(n.states[end].eps, s2)
			end = e2
		}
		return start, end
	case reAlt:
		s, e := n.add(), n.add()
		for _, opt := range t.opts {
			os, oe := n.build(opt)
			n.states[s].eps = append(n.states[s].eps, os)
			n.states[oe].eps = append(n.states[oe].eps, e)
		}
		return s, e
	case reStar:
		s, e := n.add(), n.add()
		is, ie := n.build(t.sub)
		n.states[s].eps = append(n.states[s].eps, is)
		n.states[ie].eps = append(n.states[ie].eps, is, e)
		if t.min == 0 {
			n.states[s].eps = append(n.states[s].eps, e)
		}
		return s, e
	case reOpt:
		s, e := n.add(), n.add()
		is, ie := n.build(t.sub)
		n.states[s].eps = append(n.states[s].eps, is, e)
		n.states[ie].eps = append(n.states[ie].eps, e)
		return s, e
	}
	panic("grammar: unknown node")
}

// --- DFA (subset construction) ---

// Dead is the DFA dead-state sentinel.
const Dead = -1

type dfaState struct {
	next   [256]int32
	accept bool
	// alive reports whether an accepting state is reachable from here.
	alive bool
}

// DFA is a byte-level deterministic automaton for whole-string matching.
type DFA struct {
	states []dfaState
}

// maxDFAStates bounds subset construction against pathological patterns.
const maxDFAStates = 1 << 14

// CompileRegex compiles the supported regex subset to a DFA.
func CompileRegex(pattern string) (*DFA, error) {
	p := &parser{src: pattern}
	ast, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errf("trailing input")
	}
	var n nfa
	s, e := n.build(ast)
	n.start, n.accept = s, e

	closure := func(set []int) []int {
		seen := make(map[int]bool, len(set))
		stack := append([]int(nil), set...)
		for len(stack) > 0 {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[st] {
				continue
			}
			seen[st] = true
			stack = append(stack, n.states[st].eps...)
		}
		out := make([]int, 0, len(seen))
		for st := range seen {
			out = append(out, st)
		}
		sort.Ints(out)
		return out
	}
	key := func(set []int) string {
		var b strings.Builder
		for _, st := range set {
			fmt.Fprintf(&b, "%d,", st)
		}
		return b.String()
	}

	d := &DFA{}
	ids := make(map[string]int32)
	var sets [][]int
	mk := func(set []int) (int32, error) {
		k := key(set)
		if id, ok := ids[k]; ok {
			return id, nil
		}
		if len(d.states) >= maxDFAStates {
			return 0, fmt.Errorf("grammar: regex %q exceeds DFA state budget", pattern)
		}
		id := int32(len(d.states))
		ids[k] = id
		st := dfaState{}
		for _, ns := range set {
			if ns == n.accept {
				st.accept = true
			}
		}
		d.states = append(d.states, st)
		sets = append(sets, set)
		return id, nil
	}
	if _, err := mk(closure([]int{n.start})); err != nil {
		return nil, err
	}
	for i := 0; i < len(d.states); i++ {
		set := sets[i]
		for b := 0; b < 256; b++ {
			var move []int
			for _, ns := range set {
				if n.states[ns].to >= 0 && n.states[ns].set.has(byte(b)) {
					move = append(move, n.states[ns].to)
				}
			}
			if len(move) == 0 {
				d.states[i].next[b] = Dead
				continue
			}
			id, err := mk(closure(move))
			if err != nil {
				return nil, err
			}
			d.states[i].next[b] = id
		}
	}
	d.markAlive()
	return d, nil
}

// markAlive computes, for every state, whether accept is reachable.
func (d *DFA) markAlive() {
	// Reverse BFS from accepting states.
	rev := make([][]int32, len(d.states))
	var queue []int32
	for i := range d.states {
		for b := 0; b < 256; b++ {
			if t := d.states[i].next[b]; t >= 0 {
				rev[t] = append(rev[t], int32(i))
			}
		}
		if d.states[i].accept {
			d.states[i].alive = true
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, p := range rev[s] {
			if !d.states[p].alive {
				d.states[p].alive = true
				queue = append(queue, p)
			}
		}
	}
}

// Start returns the initial state.
func (d *DFA) Start() int { return 0 }

// Step advances one byte; Dead means no match is possible.
func (d *DFA) Step(state int, b byte) int {
	if state == Dead {
		return Dead
	}
	next := d.states[state].next[b]
	if next == Dead || !d.states[next].alive {
		return Dead
	}
	return int(next)
}

// StepString advances over all bytes of s.
func (d *DFA) StepString(state int, s string) int {
	for i := 0; i < len(s) && state != Dead; i++ {
		state = d.Step(state, s[i])
	}
	return state
}

// Accepting reports whether state is accepting.
func (d *DFA) Accepting(state int) bool {
	return state != Dead && d.states[state].accept
}

// Match reports whether the whole string s matches.
func (d *DFA) Match(s string) bool {
	return d.Accepting(d.StepString(d.Start(), s))
}
