package kvd

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/kvfs"
)

// FileInfo is the policy-visible description of one eviction candidate at
// reclaim time. Candidates are already filtered for safety (not removed,
// not advisory-locked, not pinned by an in-flight pred); the policy's only
// job is ordering.
type FileInfo struct {
	File *kvfs.File
	// Seq is the daemon's registration sequence number: a stable total
	// tie-break so reclaim order never depends on map iteration.
	Seq int64
	// PID is the owning process.
	PID int
	// LastAccess is the virtual time of the most recent touch (creation,
	// pred, restore).
	LastAccess time.Duration
	// Accesses counts touches over the file's lifetime.
	Accesses int64
	// Tokens is the file's current length.
	Tokens int
	// RestoreCost estimates the PCIe time to bring the file back to the
	// GPU tier if it is offloaded and re-accessed.
	RestoreCost time.Duration
	// RecomputeCost estimates the prefill time to rebuild the file's KV
	// from scratch instead of restoring it.
	RecomputeCost time.Duration
}

// idle reports how long the file has gone untouched.
func (fi FileInfo) idle(now time.Duration) time.Duration {
	if now <= fi.LastAccess {
		return 0
	}
	return now - fi.LastAccess
}

// reaccessCost is the expected price of evicting the file and being
// wrong: the cheaper of restoring the KV over PCIe and recomputing it
// (a program that lost its cache can always rebuild it with pred).
func (fi FileInfo) reaccessCost() time.Duration {
	if fi.RecomputeCost < fi.RestoreCost {
		return fi.RecomputeCost
	}
	return fi.RestoreCost
}

// Policy orders eviction candidates. Rank returns indices into cands,
// best victim first. Implementations must be deterministic: equal scores
// break ties by FileInfo.Seq.
type Policy interface {
	Name() string
	Rank(now time.Duration, cands []FileInfo) []int
}

// rankBy returns candidate indices sorted so that less(i,j) candidates
// come first, with the registration sequence as the final tie-break.
func rankBy(cands []FileInfo, less func(a, b FileInfo) int) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := cands[order[x]], cands[order[y]]
		if c := less(a, b); c != 0 {
			return c < 0
		}
		return a.Seq < b.Seq
	})
	return order
}

// LRU evicts the least recently used file first — the classic recency
// heuristic (what PagedAttention-style servers approximate at block
// granularity).
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Rank implements Policy.
func (LRU) Rank(_ time.Duration, cands []FileInfo) []int {
	return rankBy(cands, func(a, b FileInfo) int {
		switch {
		case a.LastAccess < b.LastAccess:
			return -1
		case a.LastAccess > b.LastAccess:
			return 1
		}
		return 0
	})
}

// LFU evicts the least frequently used file first, breaking ties by
// recency. Long-lived conversation prefixes accumulate touches and stay
// resident; one-shot scratch contexts go first.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// Rank implements Policy.
func (LFU) Rank(_ time.Duration, cands []FileInfo) []int {
	return rankBy(cands, func(a, b FileInfo) int {
		switch {
		case a.Accesses < b.Accesses:
			return -1
		case a.Accesses > b.Accesses:
			return 1
		case a.LastAccess < b.LastAccess:
			return -1
		case a.LastAccess > b.LastAccess:
			return 1
		}
		return 0
	})
}

// CostAware evicts the file with the highest idle time per unit of
// expected re-access cost, GDSF-style: re-access cost is the cheaper of
// restore (PCIe transfer, model.CostModel.TransferTime) and recompute
// (prefill step time) for the file's tokens, weighted by how often the
// file has been used (frequency approximates re-access probability). A
// long-idle, rarely-touched file that would be cheap to bring back is
// the ideal victim; a conversation prefix that has been extended every
// round and costs tens of milliseconds to restore is kept even when a
// one-shot scratch context was touched slightly more recently.
type CostAware struct{}

// Name implements Policy.
func (CostAware) Name() string { return "cost-aware" }

// Rank implements Policy.
func (CostAware) Rank(now time.Duration, cands []FileInfo) []int {
	// score = idle / (reaccessCost · accesses); the highest score is the
	// best victim. Costs are floored at 1ns so empty files rank by pure
	// idleness.
	score := func(fi FileInfo) float64 {
		idle := float64(fi.idle(now)) + 1
		n := float64(fi.Accesses)
		if n < 1 {
			n = 1
		}
		cost := float64(fi.reaccessCost())
		if cost < 1 {
			cost = 1
		}
		return idle / (cost * n)
	}
	return rankBy(cands, func(a, b FileInfo) int {
		sa, sb := score(a), score(b)
		switch {
		case sa > sb: // higher score: better victim, evict first
			return -1
		case sa < sb:
			return 1
		}
		return 0
	})
}

// policyFactories maps policy names (as accepted by symphonyd -kv-policy)
// to constructors.
var policyFactories = map[string]func() Policy{
	"lru":        func() Policy { return LRU{} },
	"lfu":        func() Policy { return LFU{} },
	"cost-aware": func() Policy { return CostAware{} },
}

// PolicyNames lists the registered eviction policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewPolicy constructs an eviction policy by name.
func NewPolicy(name string) (Policy, error) {
	f, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("kvd: unknown eviction policy %q (have %v)", name, PolicyNames())
	}
	return f(), nil
}
