package sched

import (
	"testing"

	"repro/internal/model"
	"repro/internal/simclock"
)

// TestRoutedCallsBypassDispatcher checks the migration engine's routing
// contract: a call with Routed set lands on exactly the Target replica,
// whatever the dispatcher would have picked.
func TestRoutedCallsBypassDispatcher(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models:     map[string]model.CostModel{target: model.A100Llama13B()},
		Replicas:   4,
		Dispatcher: NewRoundRobin(),
	})
	run(t, clk, func() {
		for i := 0; i < 8; i++ {
			if err := s.SubmitCall(Call{Model: target, Tokens: 1, Routed: true, Target: 2}); err != nil {
				t.Errorf("SubmitCall: %v", err)
			}
		}
	})
	for _, rs := range s.Stats().Replicas {
		want := int64(0)
		if rs.ID == 2 {
			want = 8
		}
		if rs.Calls != want {
			t.Errorf("replica %d got %d calls, want %d", rs.ID, rs.Calls, want)
		}
	}
}

// TestRoutedTargetClamped checks out-of-range targets are clamped, like
// out-of-range dispatcher picks.
func TestRoutedTargetClamped(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models:   map[string]model.CostModel{target: model.A100Llama13B()},
		Replicas: 2,
	})
	run(t, clk, func() {
		if err := s.SubmitCall(Call{Model: target, Tokens: 1, Routed: true, Target: 99}); err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	if got := s.Stats().Calls; got != 1 {
		t.Fatalf("calls = %d, want 1", got)
	}
}

// TestCacheAffinityMigrateStandalone checks that without a kernel
// migration engine the dispatcher degrades to cache-affinity's static
// hashing: affinity keys pin to hash%replicas, keyless calls fall back
// to least-loaded.
func TestCacheAffinityMigrateStandalone(t *testing.T) {
	d, err := NewDispatcher("cache-affinity-migrate")
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	views := []ReplicaView{{ID: 0, QueuedTokens: 50}, {ID: 1}, {ID: 2}, {ID: 3}}
	for _, key := range []uint64{1, 7, 42, 1 << 40} {
		want := int(key % 4)
		if got := d.Pick(Call{Affinity: key}, views); got != want {
			t.Errorf("affinity %d routed to %d, want %d", key, got, want)
		}
	}
	if got := d.Pick(Call{}, views); got == 0 {
		t.Errorf("keyless call routed to the loaded replica 0")
	}
}
