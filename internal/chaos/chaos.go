// Package chaos is the kernel's deterministic fault-injection facility:
// named fault points threaded through the three I/O seams the system
// already has — the replica interconnect (netsim), the disk VFS
// (kvstore, via FaultFS), and the GPU replica executors (sched) — so
// recovery logic is exercised by tests and the -exp chaos sweep instead
// of trusted on faith.
//
// An Injector holds a set of armed Rules. Code at a seam calls
// Check(point) at the moment the fault could strike; the injector counts
// the hit, evaluates every armed rule against it, and returns the merged
// Fault outcome (usually the zero value: no fault). Rules trigger on the
// Nth hit of a point, inside a virtual-time window, or probabilistically
// from the injector's seeded stream — never from wall time or global
// randomness — so every failure scenario is byte-reproducible under the
// experiment's -seed.
//
// Fault-point names are dotted paths, one per seam operation:
//
//	ic.transfer            every interconnect page transfer
//	ic.<link>.transfer     transfers over one named link
//	fs.create fs.open fs.rename fs.remove fs.list fs.syncdir
//	                       FaultFS namespace operations
//	file.read file.write file.sync
//	                       FaultFS handle operations
//	replica.<id>.crash     one replica executor's iteration boundary
//
// Hit counting is per point name, shared by all rules on that point.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/simclock"
)

// ErrInjected is the sentinel every injected failure wraps; recovery
// tests match it with errors.Is to distinguish injected faults from real
// bugs on the same path.
var ErrInjected = errors.New("chaos: injected fault")

// Rule arms one fault behaviour on one fault point. Trigger fields
// (Nth, At, Until, Prob, Times) select which hits fire; outcome fields
// (Err, Stall, Torn, Lie, Crash) say what happens when one does. A rule
// with no trigger fields fires on its first hit and then disarms.
type Rule struct {
	// Point names the fault point this rule arms (see the package doc).
	Point string

	// Nth, when > 0, restricts firing to the Nth hit of the point
	// (1-based, counted from injector birth).
	Nth int
	// At, when > 0, keeps the rule dormant before virtual time At.
	At time.Duration
	// Until, when > 0, disarms the rule at virtual time Until; At..Until
	// with Err set is a partition window.
	Until time.Duration
	// Prob, when in (0,1), fires on each eligible hit with this
	// probability, drawn from the injector's seeded stream.
	Prob float64
	// Times caps how many times the rule fires: 0 means once, < 0 means
	// unlimited.
	Times int

	// Err fails the operation with an error wrapping ErrInjected.
	Err bool
	// Stall charges extra virtual latency before the outcome resolves.
	Stall time.Duration
	// Torn applies to write points: only a prefix of the buffer lands,
	// and the operation fails.
	Torn bool
	// Lie applies to sync points: the operation reports success but the
	// durability it promised never happens.
	Lie bool
	// Crash power-fails the component behind the point: FaultFS crashes
	// its filesystem (the operation also fails — the machine died mid
	// op), a replica CrashCheck kills the executor.
	Crash bool
}

// Fault is the merged outcome Check returns for one hit. The zero value
// means no fault. When several rules fire on the same hit, Err wins over
// nil, stalls take the maximum, and the boolean outcomes OR together.
type Fault struct {
	Err   error
	Stall time.Duration
	Torn  bool
	Lie   bool
	Crash bool
}

// armed is one rule plus its fire count.
type armed struct {
	Rule
	fires int
}

// Injector evaluates armed rules at fault points. All methods are safe
// for concurrent use by clock actors, and every method is a cheap no-op
// on a nil receiver, so seams check unconditionally.
type Injector struct {
	clk *simclock.Clock

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*armed
	hits  map[string]int
	fired map[string]int
}

// New returns an injector drawing probabilistic triggers from a stream
// seeded with seed and reading virtual time from clk (nil disables
// At/Until windows).
func New(clk *simclock.Clock, seed int64) *Injector {
	return &Injector{
		clk:   clk,
		rng:   rand.New(rand.NewSource(seed)),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// Arm adds rules to the injector. Rules are evaluated in arming order.
func (in *Injector) Arm(rules ...Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		r := r
		in.rules = append(in.rules, &armed{Rule: r})
	}
}

// Check counts one hit of point and returns the merged outcome of every
// rule that fires on it. Deterministic given the sequence of Check calls
// (which the simclock serializes) and the injector's seed.
func (in *Injector) Check(point string) Fault {
	if in == nil {
		return Fault{}
	}
	var now time.Duration
	if in.clk != nil {
		now = in.clk.Now()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[point]++
	n := in.hits[point]
	var out Fault
	for _, a := range in.rules {
		if a.Point != point {
			continue
		}
		if a.Times == 0 && a.fires >= 1 {
			continue
		}
		if a.Times > 0 && a.fires >= a.Times {
			continue
		}
		if a.Nth > 0 && n != a.Nth {
			continue
		}
		if a.At > 0 && now < a.At {
			continue
		}
		if a.Until > 0 && now >= a.Until {
			continue
		}
		if a.Prob > 0 && a.Prob < 1 && in.rng.Float64() >= a.Prob {
			continue
		}
		a.fires++
		in.fired[point]++
		if a.Err || a.Torn || a.Crash {
			out.Err = fmt.Errorf("chaos: %s (hit %d): %w", point, n, ErrInjected)
		}
		if a.Stall > out.Stall {
			out.Stall = a.Stall
		}
		out.Torn = out.Torn || a.Torn
		out.Lie = out.Lie || a.Lie
		out.Crash = out.Crash || a.Crash
	}
	return out
}

// TotalFired reports the number of hits, across all points, that
// triggered at least one rule.
func (in *Injector) TotalFired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, n := range in.fired {
		total += n
	}
	return total
}

// sleep charges d of virtual time to the calling actor; it must be
// called from a clock-actor context and without in.mu held.
func (in *Injector) sleep(d time.Duration) {
	if in == nil || in.clk == nil || d <= 0 {
		return
	}
	in.clk.Sleep(d)
}

// CrashCheck adapts the injector into the sched/core replica crash hook:
// each replica's iteration boundary checks the point
// "replica.<id>.crash" and crashes when a rule with Crash set fires.
func (in *Injector) CrashCheck() func(replica int) bool {
	return func(id int) bool {
		return in.Check(fmt.Sprintf("replica.%d.crash", id)).Crash
	}
}

// TransferFaultHook adapts the injector into a netsim.Interconnect fault
// hook. Every transfer checks "ic.transfer" and, when link is non-empty,
// "ic.<link>.transfer" as well; outcomes merge (max stall, any error).
// The hook itself never sleeps — the interconnect charges the stall on
// the transferring actor.
func TransferFaultHook(in *Injector, link string) func(pages int, bytes int64) TransferOutcome {
	points := []string{"ic.transfer"}
	if link != "" {
		points = append(points, "ic."+link+".transfer")
	}
	return func(pages int, bytes int64) TransferOutcome {
		var out TransferOutcome
		for _, p := range points {
			f := in.Check(p)
			if f.Stall > out.Stall {
				out.Stall = f.Stall
			}
			if out.Err == nil {
				out.Err = f.Err
			}
		}
		return out
	}
}

// TransferOutcome mirrors netsim.TransferFault without importing netsim
// here; the experiments wire the hook with a one-line conversion. (chaos
// sits below netsim's consumers, and keeping the dependency one-way lets
// netsim tests use chaos too.)
type TransferOutcome struct {
	Stall time.Duration
	Err   error
}
