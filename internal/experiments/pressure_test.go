package experiments

import (
	"testing"
)

func TestPressureOversubscriptionSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("pressure sweep in -short mode")
	}
	cfg := QuickPressure()
	pts := RunPressure(cfg)
	if len(pts) != 2 || pts[0].Retain || !pts[1].Retain {
		t.Fatalf("unexpected sweep shape: %+v", pts)
	}
	for _, p := range pts {
		// The acceptance bar: a 3x working set completes with zero
		// program-visible ErrNoSpace failures, whether the daemon or the
		// program decides what stays.
		if p.NoSpaceErrors != 0 || p.OtherErrors != 0 {
			t.Errorf("retain=%v: %d nospace + %d other errors", p.Retain, p.NoSpaceErrors, p.OtherErrors)
		}
		if p.Completed != cfg.Clients {
			t.Errorf("retain=%v: completed %d of %d clients", p.Retain, p.Completed, cfg.Clients)
		}
		// 3x oversubscription means real daemon work, not a vacuous pass.
		if p.Offloads == 0 {
			t.Errorf("retain=%v: no pressure exercised: %+v", p.Retain, p)
		}
		if p.GPUPeakPages > p.GPUPageCap {
			t.Errorf("retain=%v: GPU tier overcommitted: %d of %d pages", p.Retain, p.GPUPeakPages, p.GPUPageCap)
		}
	}
	// Holding the conversation under its lock must save restores the
	// daemon's recency order pays for: lru evicts a thinking client's
	// conversation ahead of that client's fresher scratch.
	lru, kept := pts[0], pts[1]
	if lru.Restores+lru.SwapRestores == 0 {
		t.Errorf("lru restored nothing: %+v", lru)
	}
	if kept.RestoredCost >= lru.RestoredCost {
		t.Errorf("retention restored cost %v not below lru %v (retention %+v, lru %+v)",
			kept.RestoredCost, lru.RestoredCost, kept, lru)
	}
}
