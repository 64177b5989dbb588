package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/token"
)

// PrefixCacheConfig parameterizes the kernel radix prefix-cache sweep: a
// multi-tenant workload in which every job within a tenant submits the
// same long prompt preamble followed by a short unique suffix — the
// system-prompt / few-shot-template shape that dominates production
// serving. With the cache off every job prefills its full prompt from
// scratch; with it on, the kernel deduplicates the shared preamble
// across jobs by copy-on-write KV share and prefills only the tail.
type PrefixCacheConfig struct {
	// Tenants is the number of distinct shared preambles; one closed-loop
	// client per tenant runs its jobs back to back.
	Tenants int
	// JobsPerTenant is how many prompt+decode jobs each tenant runs. The
	// first job of a tenant seeds the cache; the rest can hit.
	JobsPerTenant int
	// PreambleTokens is the shared prompt prefix length per tenant.
	PreambleTokens int
	// SuffixTokens is the unique per-job prompt tail.
	SuffixTokens int
	// DecodeTokens is the per-job decode length after the prompt.
	DecodeTokens int
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultPrefixCache returns the sweep used by symphony-bench
// -exp prefixcache.
func DefaultPrefixCache() PrefixCacheConfig {
	return PrefixCacheConfig{
		Tenants:        6,
		JobsPerTenant:  8,
		PreambleTokens: 768,
		SuffixTokens:   64,
		DecodeTokens:   16,
		Seed:           1,
	}
}

// QuickPrefixCache returns a reduced sweep for -quick and the test
// suite.
func QuickPrefixCache() PrefixCacheConfig {
	c := DefaultPrefixCache()
	c.Tenants = 4
	c.PreambleTokens = 512
	c.DecodeTokens = 4
	return c
}

// prefixCacheCells names the sweep's kernel configurations in
// presentation order: cache off, cache on.
var prefixCacheCells = []string{"off", "on"}

// PrefixCachePoint is one cell's measurement on the shared-preamble
// workload.
type PrefixCachePoint struct {
	Cell      string
	Enabled   bool
	Tenants   int
	Jobs      int
	Completed int
	// Makespan covers the client phase; Throughput is virtual jobs per
	// second over it.
	Makespan   time.Duration
	Throughput float64
	// Speedup is vs the off row (1 when absent).
	Speedup float64
	// PromptTokens is the total prompt tokens submitted across jobs;
	// HitTokens of them were served from the cache instead of prefilled,
	// and SavedFrac is their ratio.
	PromptTokens int64
	HitTokens    int64
	SavedFrac    float64
	// SavedPrefill is the virtual prefill compute the cache avoided.
	SavedPrefill time.Duration
	// Cache ledger at the end of the run.
	Nodes      int
	Lookups    int64
	Hits       int64
	Insertions int64
	Evictions  int64
	// Shares counts kvfs cross-tree page adoptions (one per attach).
	Shares int64
}

// RunPrefixCache sweeps the two cells over the shared-preamble
// workload.
func RunPrefixCache(cfg PrefixCacheConfig) []PrefixCachePoint {
	var out []PrefixCachePoint
	for _, cell := range prefixCacheCells {
		out = append(out, runPrefixCacheCell(cfg, cell))
	}
	normalize(out, func(_, q *PrefixCachePoint) bool { return q.Cell == "off" },
		func(p, base *PrefixCachePoint) { p.Speedup = ratio(p.Throughput, base.Throughput) })
	return out
}

// prefixPromptTokens builds tenant t's job-j prompt: the tenant's shared
// preamble followed by the job's unique suffix.
func prefixPromptTokens(cfg PrefixCacheConfig, base, t, j int) []token.ID {
	return append(synthTokens(cfg.PreambleTokens, base+1_000_000+t*100_000),
		synthTokens(cfg.SuffixTokens, base+5_000_000+t*100_000+j*1_000)...)
}

// runPrefixCacheCell measures one kernel configuration on the workload.
func runPrefixCacheCell(cfg PrefixCacheConfig, cell string) PrefixCachePoint {
	enabled := cell != "off"
	c := newCell(simclock.New(), func(kc *core.Config) {
		kc.Prefix = core.PrefixConfig{Enabled: enabled}
	})

	base := seedBase(cfg.Seed)
	c.run(func() {
		c.clients(population{
			User:    numbered("tenant-%d"),
			Clients: cfg.Tenants,
			// Stagger starts a millisecond apart so the first job of each
			// tenant lands (and populates the cache) before its followers
			// phase-lock.
			Spread: time.Duration(cfg.Tenants) * time.Millisecond,
			Program: func(ctx *core.Ctx, t int) error {
				return closedLoop(ctx, cfg.JobsPerTenant, 0, func(j int) error {
					prompt := prefixPromptTokens(cfg, base, t, j)
					if err := promptRequest(ctx, prompt, cfg.DecodeTokens, base+9_000_000+t*100_000+j*1_000); err != nil {
						return err
					}
					c.mark()
					return nil
				})
			},
		})
	})
	c.mustSucceed("prefixcache cell " + cell)

	st := c.k.Stats()
	pt := PrefixCachePoint{
		Cell:         cell,
		Enabled:      enabled,
		Tenants:      cfg.Tenants,
		Jobs:         cfg.Tenants * cfg.JobsPerTenant,
		Completed:    c.reqs.completed,
		Makespan:     c.reqs.last,
		Throughput:   perSecond(c.reqs.completed, c.reqs.last),
		PromptTokens: int64(cfg.Tenants*cfg.JobsPerTenant) * int64(cfg.PreambleTokens+cfg.SuffixTokens),
		HitTokens:    st.PrefixCache.HitTokens,
		SavedPrefill: st.PrefixCache.SavedPrefill,
		Nodes:        st.PrefixCache.Nodes,
		Lookups:      st.PrefixCache.Lookups,
		Hits:         st.PrefixCache.Hits,
		Insertions:   st.PrefixCache.Insertions,
		Evictions:    st.PrefixCache.Evictions,
		Shares:       st.FS.Shares,
	}
	if pt.PromptTokens > 0 {
		pt.SavedFrac = float64(pt.HitTokens) / float64(pt.PromptTokens)
	}
	return pt
}

// PrefixCacheTable renders the sweep.
func PrefixCacheTable(points []PrefixCachePoint) metrics.Table {
	t := metrics.Table{
		Title: "P1: kernel radix prefix cache on a shared-preamble multi-tenant workload",
		Headers: []string{"cell", "jobs/s", "speedup", "saved-frac", "hit-tok", "saved-prefill",
			"nodes", "lookups", "hits", "inserts", "evicts", "shares"},
	}
	for _, p := range points {
		t.AddRow(p.Cell,
			fmt.Sprintf("%.2f", p.Throughput), fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.2f", p.SavedFrac), p.HitTokens, p.SavedPrefill.Round(time.Microsecond),
			p.Nodes, p.Lookups, p.Hits, p.Insertions, p.Evictions, p.Shares)
	}
	return t
}
