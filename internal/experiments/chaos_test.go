package experiments

import "testing"

// TestChaosInvariants runs the quick sweep and checks the acceptance
// bars of every cell: no job lost or duplicated, billing and the
// scheduler's execution ledger exact, recovery landing every family —
// plus per-cell evidence that the fault plan actually fired.
func TestChaosInvariants(t *testing.T) {
	cfg := QuickChaos()
	// The prefix-cache cell is appended explicitly (not in
	// DefaultChaosCells, whose recorded artifacts stay stable): the same
	// workload with the radix cache on and flat prompts, auditing that
	// cache-served tokens are billed as saved, never executed.
	cfg.Cells = append(append([]string{}, cfg.Cells...), "prefix-cache")
	for _, p := range RunChaos(cfg) {
		if p.Completed != p.Jobs {
			t.Errorf("%s: completed %d of %d jobs", p.Mode, p.Completed, p.Jobs)
		}
		if p.Lost != 0 || p.Duplicated != 0 {
			t.Errorf("%s: lost=%d duplicated=%d, want 0/0", p.Mode, p.Lost, p.Duplicated)
		}
		if !p.BillingExact {
			t.Errorf("%s: charged %d tokens, want exactly %d", p.Mode, p.ChargedTokens, p.ExpectedTokens)
		}
		if !p.TokensExact {
			t.Errorf("%s: scheduler ledger not exact (executed != tokens + lost)", p.Mode)
		}
		if p.RecoveredFiles != cfg.Families || !p.RecoverOK {
			t.Errorf("%s: recovered %d files (ok=%v), want %d clean",
				p.Mode, p.RecoveredFiles, p.RecoverOK, cfg.Families)
		}
		if p.P99Inflation > 3 {
			t.Errorf("%s: p99 inflated %.2fx over fault-free, want <= 3x", p.Mode, p.P99Inflation)
		}
		switch p.Mode {
		case "none":
			if p.Faults != 0 {
				t.Errorf("none: %d faults fired in the fault-free cell", p.Faults)
			}
		case "interconnect":
			if p.TransferAborts == 0 {
				t.Errorf("interconnect: no transfer aborts — the fault plan never bit")
			}
		case "disk":
			if p.CommitErrors == 0 {
				t.Errorf("disk: no commit errors — the fault plan never bit")
			}
		case "replica-crash":
			if p.Crashes == 0 || p.Requeued == 0 {
				t.Errorf("replica-crash: crashes=%d requeued=%d — the fault plan never bit",
					p.Crashes, p.Requeued)
			}
		case "prefix-cache":
			if p.Faults != 0 {
				t.Errorf("prefix-cache: %d faults fired in the fault-free cell", p.Faults)
			}
			if p.HitTokens == 0 {
				t.Errorf("prefix-cache: no prompt tokens served from cache — the cell never hit")
			}
		}
		if p.Mode != "prefix-cache" && p.HitTokens != 0 {
			t.Errorf("%s: prefix cache hit %d tokens with the cache disabled", p.Mode, p.HitTokens)
		}
	}
}
