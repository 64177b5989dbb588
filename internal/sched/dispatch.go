package sched

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Call is the dispatcher-visible description of one pred call: which model
// it runs, how many new tokens it carries, and an optional affinity key.
// Symphony passes the root KV hash of the call's file — one key per prompt
// family: forks of one conversation, a prefill that attached a cached
// prefix and every decode step after it all carry the same key, so they
// keep hitting the replica that holds their prefix.
type Call struct {
	Model    string
	Tokens   int
	Affinity uint64 // 0 = no affinity
	// Priority is the call's scheduling lane (zero value Normal). The
	// priority policy orders every GPU iteration by it; see priority.go.
	Priority Priority
	// Routed, when true, pins the call to replica Target, bypassing the
	// dispatcher. The kernel's KV migration engine sets it after deciding
	// placement from the kernel's prefix directory and the live load views;
	// ordinary callers leave it false.
	Routed bool
	Target int
	// Decode marks the call as an autoregressive decode run: its tokens
	// depend on each other, so the executor advances it one token per
	// iteration (sequential physics) instead of slicing it like a
	// prefill — unless Spec is set, in which case accepted draft tokens
	// let one iteration retire several positions at once.
	Decode bool
	// Spec, when non-nil on a Decode call, enables executor-level
	// speculative decoding for it (see SpecCall in spec.go).
	Spec *SpecCall
	// OnPreempt, when non-nil, is invoked from the replica executor at
	// iteration boundaries: with true when the scheduler deschedules the
	// call mid-flight (Stats.Preemptions lists the causes), with false when
	// the call is next scheduled again. The duration returned by the
	// resume invocation is charged to the resuming step — the kernel uses
	// the pair to unpin the call's KV file while preempted and to bill
	// the restore if the memory daemon offloaded it meanwhile. Callbacks
	// run on the replica actor and must not block on clock primitives.
	OnPreempt func(preempted bool) time.Duration
	// OnProgress, when non-nil, is invoked from the replica executor at the
	// end of every iteration that advanced the call, with the tokens it has
	// retired so far — a decode run streams its tokens through it as they
	// come to exist. Counts never decrease, except after a crash-restart
	// discarded the call's progress. Like OnPreempt it runs on the replica
	// actor and must not block on clock primitives. Once SubmitCall has
	// returned — the call done, or the clock shut down under it — it never
	// runs again: SubmitCall waits out a count in progress before it
	// returns.
	OnProgress func(retired int)
}

// ReplicaView is a dispatcher's snapshot of one replica's load at
// submission time.
type ReplicaView struct {
	ID int
	// Queued is the number of calls waiting in the replica's queue.
	Queued int
	// QueuedTokens is the total new tokens those calls carry.
	QueuedTokens int
	// InflightTokens is the new tokens of the batch the replica is
	// currently executing (0 when idle).
	InflightTokens int
	// BusyUntil is the virtual time the replica's current GPU step ends;
	// zero when no step is running.
	BusyUntil time.Duration
	// Now is the virtual time of the snapshot.
	Now time.Duration
}

// PendingTokens is the replica's virtual queue length in token units:
// everything submitted to it that the GPU has not finished.
func (v ReplicaView) PendingTokens() int { return v.QueuedTokens + v.InflightTokens }

// busyHorizon is how far into the future the replica's current step runs.
func (v ReplicaView) busyHorizon() time.Duration {
	if v.BusyUntil <= v.Now {
		return 0
	}
	return v.BusyUntil - v.Now
}

// Dispatcher routes each submitted call to one of the scheduler's GPU
// replicas. Pick receives a non-empty view slice (one entry per replica,
// indexed by replica ID) and returns the chosen replica's ID; out-of-range
// returns are clamped by the scheduler. Implementations must be safe for
// concurrent use by multiple submitting actors.
type Dispatcher interface {
	Name() string
	Pick(c Call, views []ReplicaView) int
}

// RoundRobin cycles through replicas in submission order, ignoring load.
// It is the fairness baseline: over any window of N·k calls every replica
// receives exactly k.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// NewRoundRobin returns a round-robin dispatcher.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Dispatcher.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Dispatcher.
func (d *RoundRobin) Pick(_ Call, views []ReplicaView) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.next % len(views)
	d.next++
	return n
}

// LeastLoaded sends each call to the replica with the shortest virtual
// queue — queued plus in-flight tokens — breaking ties by the nearer busy
// horizon, then by replica ID. Under skewed call sizes (one huge prefill
// among decode trickles) this keeps small calls off the replica grinding
// through the giant one.
type LeastLoaded struct{}

// Name implements Dispatcher.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Dispatcher.
func (LeastLoaded) Pick(_ Call, views []ReplicaView) int {
	best := 0
	for i := 1; i < len(views); i++ {
		b, v := views[best], views[i]
		switch {
		case v.PendingTokens() < b.PendingTokens():
			best = i
		case v.PendingTokens() == b.PendingTokens() && v.busyHorizon() < b.busyHorizon():
			best = i
		}
	}
	return views[best].ID
}

// CacheAffinity pins calls carrying an affinity key (the root KV hash of
// the call's file) to the key's hash home, key % replicas, so a prompt
// family keeps hitting the replica that holds its shared prefix KV pages.
// This Pick is the one statement of that rule: the kernel's prefix
// directory asks it where a family it has not moved lives. Calls without
// a key fall back to the Fallback dispatcher (least-loaded when nil).
type CacheAffinity struct {
	Fallback Dispatcher
}

// Name implements Dispatcher.
func (*CacheAffinity) Name() string { return "cache-affinity" }

// Pick implements Dispatcher.
func (d *CacheAffinity) Pick(c Call, views []ReplicaView) int {
	if c.Affinity != 0 {
		return int(c.Affinity % uint64(len(views)))
	}
	fb := d.Fallback
	if fb == nil {
		fb = LeastLoaded{}
	}
	return fb.Pick(c, views)
}

// CacheAffinityMigrate is cache-affinity with cross-replica KV migration:
// the same routing contract as CacheAffinity — affinity keys pin to a
// home replica, keyless calls fall back — but the home is dynamic. On a
// kernel, the migration engine (internal/core) owns placement: it tracks
// homes in the kernel's prefix directory, moves a hot prefix's KV pages to
// a colder replica over the interconnect when the home is overloaded, and
// pins each call to the directory's current home via Call.Routed/Target,
// so the embedded CacheAffinity's Pick only ever sees the calls the engine
// chose not to route (keyless ones, and everything on a single replica).
// Standalone — on a scheduler without a kernel — it is exactly
// CacheAffinity's static hashing.
type CacheAffinityMigrate struct {
	CacheAffinity
}

// Name implements Dispatcher.
func (*CacheAffinityMigrate) Name() string { return "cache-affinity-migrate" }

// dispatcherFactories maps policy names (as accepted by symphonyd -dispatch)
// to constructors. Stateful dispatchers need a fresh value per
// scheduler, hence factories rather than instances.
var dispatcherFactories = map[string]func() Dispatcher{
	"round-robin":            func() Dispatcher { return NewRoundRobin() },
	"least-loaded":           func() Dispatcher { return LeastLoaded{} },
	"cache-affinity":         func() Dispatcher { return &CacheAffinity{} },
	"cache-affinity-migrate": func() Dispatcher { return &CacheAffinityMigrate{} },
}

// DispatcherNames lists the registered dispatcher policy names, sorted.
func DispatcherNames() []string {
	names := make([]string, 0, len(dispatcherFactories))
	for n := range dispatcherFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewDispatcher constructs a dispatcher by policy name. The empty string
// selects round-robin, the default.
func NewDispatcher(name string) (Dispatcher, error) {
	if name == "" {
		name = "round-robin"
	}
	f, ok := dispatcherFactories[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown dispatcher %q (have %v)", name, DispatcherNames())
	}
	return f(), nil
}
