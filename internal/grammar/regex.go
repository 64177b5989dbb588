// Package grammar implements constrained decoding for LIPs (paper §2.3,
// §4.1): automata that, intersected with the model's next-token
// distribution via Dist.Mask, force generated text to follow a format.
//
// Serving stacks like XGrammar, Outlines, and Guidance bake a fixed set of
// such decoders into the server; Symphony's claim is that, given full
// access to the distribution, they are expressible as ordinary user code.
// This package provides two, each lifted to token masks through a
// Lexicon: a regex matcher (parsed and compiled by the standard library's
// regexp/syntax, run as an NFA over sets of live instructions) and a JSON
// validator that asks encoding/json's scanner whether the text so far
// still extends to a document.
//
// A pattern is Go (RE2) syntax with `.` matching newline, and it matches
// the whole text: anchors and \b are rejected, since a match is always
// anchored at both ends. Deliberate differences from the hand-written
// parser this replaced: `.` and classes match runes, not bytes; `\s` no
// longer includes `\v`; `{m,n}` is a repetition; and `^`, `$` and `{` are
// no longer literals.
//
// JSON is what encoding/json accepts. Deliberate differences from the
// hand-written automaton this replaced: a number with a leading zero
// (`01`, `-01`) is refused, and nesting is bounded by encoding/json's limit
// of 10,000 containers instead of 64.
package grammar

import (
	"fmt"
	"regexp/syntax"
	"slices"
)

// Regex is a compiled pattern. Its state is the sorted set of program
// counters of the rune and match instructions the text so far can reach
// and from which a match is still reachable; the empty set is the dead
// state, from which no extension matches.
type Regex struct {
	prog *syntax.Prog
	live []bool // live[pc]: a match is reachable from instruction pc
}

// CompileRegex compiles pattern for whole-text matching.
func CompileRegex(pattern string) (*Regex, error) {
	re, err := syntax.Parse(pattern, syntax.Perl|syntax.DotNL)
	if err != nil {
		return nil, fmt.Errorf("grammar: %w", err)
	}
	prog, err := syntax.Compile(re.Simplify())
	if err != nil {
		return nil, fmt.Errorf("grammar: %w", err)
	}
	r := &Regex{prog: prog, live: make([]bool, len(prog.Inst))}
	for _, in := range prog.Inst {
		if in.Op == syntax.InstEmptyWidth {
			return nil, fmt.Errorf("grammar: regex %q: anchors and \\b are not supported (matching is whole-text)", pattern)
		}
	}
	for changed := true; changed; {
		changed = false
		for pc, in := range prog.Inst {
			alt := in.Op == syntax.InstAlt || in.Op == syntax.InstAltMatch
			never := in.Op == syntax.InstFail || in.Op == syntax.InstRune && len(in.Rune) == 0 // an empty class
			if !r.live[pc] && !never &&
				(in.Op == syntax.InstMatch || r.live[in.Out] || alt && r.live[in.Arg]) {
				r.live[pc] = true
				changed = true
			}
		}
	}
	return r, nil
}

// Start returns the state before any text.
func (r *Regex) Start() []uint32 { return r.closure([]uint32{uint32(r.prog.Start)}) }

// Step advances state over the runes of text. The result is empty once no
// extension of the text can match.
func (r *Regex) Step(state []uint32, text string) []uint32 {
	for _, c := range text {
		if len(state) == 0 {
			break
		}
		var next []uint32
		for _, pc := range state {
			if in := &r.prog.Inst[pc]; in.MatchRune(c) {
				next = append(next, in.Out)
			}
		}
		state = r.closure(next)
	}
	return state
}

// Accepting reports whether the text that led to state is a match.
func (r *Regex) Accepting(state []uint32) bool {
	return slices.ContainsFunc(state, func(pc uint32) bool { return r.prog.Inst[pc].Op == syntax.InstMatch })
}

// closure follows the empty transitions from pcs and returns the live rune
// and match instructions reached, sorted.
func (r *Regex) closure(pcs []uint32) []uint32 {
	seen := make([]bool, len(r.prog.Inst))
	var out []uint32
	for len(pcs) > 0 {
		pc := pcs[len(pcs)-1]
		pcs = pcs[:len(pcs)-1]
		if seen[pc] || !r.live[pc] {
			continue
		}
		seen[pc] = true
		switch in := &r.prog.Inst[pc]; in.Op {
		case syntax.InstAlt, syntax.InstAltMatch:
			pcs = append(pcs, in.Out, in.Arg)
		case syntax.InstCapture, syntax.InstNop:
			pcs = append(pcs, in.Out)
		default:
			out = append(out, pc)
		}
	}
	slices.Sort(out)
	return out
}
