package experiments

import "testing"

// TestPrefixCacheSpeedupBar is the acceptance bar for the kernel radix
// prefix cache: on the shared-preamble multi-tenant workload the cache
// must deliver at least 2x the virtual throughput of the cache-off
// kernel and serve at least 60% of all submitted prompt tokens from
// cache instead of recomputing them, with an exact share/hit ledger.
func TestPrefixCacheSpeedupBar(t *testing.T) {
	cfg := QuickPrefixCache()
	pts := RunPrefixCache(cfg)
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	byCell := map[string]*PrefixCachePoint{}
	for i := range pts {
		byCell[pts[i].Cell] = &pts[i]
	}
	off, on, order := byCell["off"], byCell["on"], byCell["on+order"]
	if off == nil || on == nil || order == nil {
		t.Fatalf("missing cells: %+v", pts)
	}

	wantJobs := cfg.Tenants * cfg.JobsPerTenant
	for _, p := range pts {
		if p.Completed != wantJobs {
			t.Errorf("%s completed %d of %d jobs", p.Cell, p.Completed, wantJobs)
		}
	}

	if off.HitTokens != 0 || off.Shares != 0 || off.Lookups != 0 {
		t.Errorf("cache-off kernel touched the prefix cache: %+v", off)
	}
	for _, p := range []*PrefixCachePoint{on, order} {
		if p.Throughput < 2*off.Throughput {
			t.Errorf("%s throughput %.2f < 2x off %.2f (speedup %.2fx)",
				p.Cell, p.Throughput, off.Throughput, p.Speedup)
		}
		if p.SavedFrac < 0.60 {
			t.Errorf("%s saved only %.0f%% of prompt tokens, want >= 60%%", p.Cell, 100*p.SavedFrac)
		}
		// Ledger exactness: every hit adopts pages cross-tree (Shares
		// counts both job attaches and the cache's own inserts), hits never
		// exceed lookups, and hit tokens never exceed the prompt volume.
		if p.Hits == 0 || p.Hits > p.Lookups {
			t.Errorf("%s hit ledger inconsistent: hits=%d lookups=%d", p.Cell, p.Hits, p.Lookups)
		}
		if p.Shares < p.Hits+int64(p.Insertions) {
			t.Errorf("%s shares %d < hits %d + inserts %d", p.Cell, p.Shares, p.Hits, p.Insertions)
		}
		if p.HitTokens <= 0 || p.HitTokens >= p.PromptTokens {
			t.Errorf("%s hit tokens %d outside (0, %d)", p.Cell, p.HitTokens, p.PromptTokens)
		}
	}
}
