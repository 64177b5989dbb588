package sched

import (
	"fmt"
	"sort"
	"time"
)

// Priority is a call's scheduling lane. Lower values are more urgent. The
// zero value is Normal, so callers that never think about priority get the
// middle lane.
type Priority int

// The three lanes, from most to least urgent. Interactive is for
// latency-sensitive calls (a human is waiting on the token), Batch for
// throughput work that tolerates delay (offline evaluation, cache
// building), Normal for everything else.
const (
	Interactive Priority = -1
	Normal      Priority = 0
	Batch       Priority = 1
)

// Priorities lists the lanes from most to least urgent, for iteration.
var Priorities = []Priority{Interactive, Normal, Batch}

// String returns the lane's wire name.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Normal:
		return "normal"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// laneIndex maps a lane to a dense array index [0, NumLanes).
func (p Priority) laneIndex() int { return int(p.clamp()) + 1 }

// clamp folds out-of-range values into the nearest lane.
func (p Priority) clamp() Priority {
	if p < Interactive {
		return Interactive
	}
	if p > Batch {
		return Batch
	}
	return p
}

// NumLanes is the number of priority lanes.
const NumLanes = 3

// ParsePriority resolves a wire name ("interactive", "normal", "batch")
// to its lane. The empty string means Normal, so absent request fields
// need no special-casing upstream.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "", "normal":
		return Normal, nil
	case "batch":
		return Batch, nil
	default:
		return Normal, fmt.Errorf("sched: unknown priority %q (have interactive|normal|batch)", s)
	}
}

// PriorityPolicy orders each GPU iteration and bounds how much of it any
// one call may consume. The replica executor consults it at every
// iteration boundary: calls are ranked by their effective lane (most
// urgent first, FIFO within a lane), sliced to the quantum, and packed
// into the step until the token budget runs out. A call that was stepping
// but is not packed this iteration is preempted; it resumes — with its KV
// state intact — in a later iteration.
type PriorityPolicy interface {
	Name() string
	// Quantum bounds the new tokens one call may execute per iteration;
	// <= 0 means unbounded (the call runs to completion in one slice).
	Quantum() int
	// StepTokens bounds the total new tokens packed into one iteration,
	// on top of the model's MaxBatchTokens; <= 0 means no extra bound.
	StepTokens() int
	// Effective maps a call's submitted lane and the time since it last
	// made progress (since submission, for a call that has never run) to
	// the lane it competes in now. Aging policies promote stalled calls
	// so no lane starves; a call stepping every iteration never ages, so
	// a long-running batch slice cannot ratchet itself above fresh
	// interactive arrivals.
	Effective(p Priority, waited time.Duration) Priority
}

// Lanes is the strict-priority policy with aging: interactive before
// normal before batch, FIFO within a lane, each call sliced to Quantum
// tokens per iteration, and a call's effective lane promoted one step for
// every AgeAfter it has waited so saturation in a higher lane cannot
// starve a lower one forever. An iteration that carries a prompt slice
// carries no prompt slice whose effective lane is less urgent than that
// prompt's submitted lane; decode runs of every lane still share it (see
// packStep).
type Lanes struct {
	// SliceTokens is the per-call step quantum: the tokens one call may
	// execute per iteration (default DefaultQuantum).
	SliceTokens int
	// MaxStepTokens bounds one iteration's total new tokens; 0 means the
	// model's MaxBatchTokens is the only bound.
	MaxStepTokens int
	// AgeAfter is the time without progress that promotes a call one
	// lane (default DefaultAgeAfter); <= 0 disables aging.
	AgeAfter time.Duration
}

// DefaultQuantum is the per-iteration token slice of the default lanes
// policy: small enough that a monster prefill cannot hold an iteration
// hostage, large enough that slicing overhead stays in the noise under
// batched load.
const DefaultQuantum = 128

// DefaultAgeAfter is the default lane-promotion interval.
const DefaultAgeAfter = 250 * time.Millisecond

// DefaultLanes returns the lanes policy with default quantum and aging.
func DefaultLanes() *Lanes {
	return &Lanes{SliceTokens: DefaultQuantum, AgeAfter: DefaultAgeAfter}
}

// Name implements PriorityPolicy.
func (l *Lanes) Name() string { return "lanes" }

// Quantum implements PriorityPolicy.
func (l *Lanes) Quantum() int {
	if l.SliceTokens <= 0 {
		return DefaultQuantum
	}
	return l.SliceTokens
}

// StepTokens implements PriorityPolicy.
func (l *Lanes) StepTokens() int { return l.MaxStepTokens }

// Effective implements PriorityPolicy: one lane of promotion per AgeAfter
// without progress, clamped at Interactive. Each executed slice resets
// the wait, so a promoted call drops back to its lane after its slice —
// saturation grants a starving call bounded progress, not residency in
// the higher lane.
func (l *Lanes) Effective(p Priority, waited time.Duration) Priority {
	p = p.clamp()
	if l.AgeAfter <= 0 || waited <= 0 {
		return p
	}
	promoted := Priority(int(p) - int(waited/l.AgeAfter))
	return promoted.clamp()
}

// FIFO is the run-to-completion baseline: priorities are ignored, calls
// execute in arrival order, and a prompt runs all of its tokens in one
// slice unless SliceTokens cuts it. Decode runs advance one token per
// iteration (one draft/verify round when speculated) under every policy,
// this one included. It reproduces the pre-iteration-level executor and
// is what the SLO experiment measures lane scheduling against.
type FIFO struct {
	// SliceTokens, when > 0, bounds the prompt tokens one call may execute
	// per iteration: Sarathi-style chunked prefill under arrival order, so
	// a monster prompt cannot hold an iteration hostage while decodes queue
	// behind it. The zero value runs each prompt to completion.
	SliceTokens int
}

// Name implements PriorityPolicy.
func (FIFO) Name() string { return "fifo" }

// Quantum implements PriorityPolicy: SliceTokens, where <= 0 is unbounded
// (run to completion).
func (f FIFO) Quantum() int { return f.SliceTokens }

// StepTokens implements PriorityPolicy: the model cap is the only bound.
func (FIFO) StepTokens() int { return 0 }

// Effective implements PriorityPolicy: every call competes in one lane.
func (FIFO) Effective(Priority, time.Duration) Priority { return Normal }

// priorityPolicyFactories maps policy names (as accepted by the
// -priority-policy flags) to constructors.
var priorityPolicyFactories = map[string]func() PriorityPolicy{
	"lanes": func() PriorityPolicy { return DefaultLanes() },
	"fifo":  func() PriorityPolicy { return FIFO{} },
}

// PriorityPolicyNames lists the registered priority policy names, sorted.
func PriorityPolicyNames() []string {
	names := make([]string, 0, len(priorityPolicyFactories))
	for n := range priorityPolicyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewPriorityPolicy constructs a priority policy by name. The empty
// string selects lanes, the default.
func NewPriorityPolicy(name string) (PriorityPolicy, error) {
	if name == "" {
		name = "lanes"
	}
	f, ok := priorityPolicyFactories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown priority policy %q (have %v)", name, PriorityPolicyNames())
	}
	return f(), nil
}
