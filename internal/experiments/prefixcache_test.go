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
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	byCell := map[string]*PrefixCachePoint{}
	for i := range pts {
		byCell[pts[i].Cell] = &pts[i]
	}
	off, on := byCell["off"], byCell["on"]
	if off == nil || on == nil {
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
	if on.Throughput < 2*off.Throughput {
		t.Errorf("%s throughput %.2f < 2x off %.2f (speedup %.2fx)",
			on.Cell, on.Throughput, off.Throughput, on.Speedup)
	}
	if on.SavedFrac < 0.60 {
		t.Errorf("%s saved only %.0f%% of prompt tokens, want >= 60%%", on.Cell, 100*on.SavedFrac)
	}
	// Ledger exactness: every hit adopts pages cross-tree (Shares
	// counts both job attaches and the cache's own inserts), hits never
	// exceed lookups, and hit tokens never exceed the prompt volume.
	if on.Hits == 0 || on.Hits > on.Lookups {
		t.Errorf("%s hit ledger inconsistent: hits=%d lookups=%d", on.Cell, on.Hits, on.Lookups)
	}
	if on.Shares < on.Hits+int64(on.Insertions) {
		t.Errorf("%s shares %d < hits %d + inserts %d", on.Cell, on.Shares, on.Hits, on.Insertions)
	}
	if on.HitTokens <= 0 || on.HitTokens >= on.PromptTokens {
		t.Errorf("%s hit tokens %d outside (0, %d)", on.Cell, on.HitTokens, on.PromptTokens)
	}
}
