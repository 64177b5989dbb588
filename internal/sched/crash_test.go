package sched

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

// TestReplicaCrashRequeuesInFlight pins the executor crash path: a
// replica dies at an iteration boundary with calls admitted and queued;
// every one of them must still complete (requeued to survivors, progress
// discarded), the ledger must balance exactly — ExecutedTokens ==
// Tokens + LostTokens — and the OnCrash hook must hear about the death.
func TestReplicaCrashRequeuesInFlight(t *testing.T) {
	clk := simclock.New()
	var (
		mu      sync.Mutex
		crashed []int
	)
	armed := true
	s := New(clk, Config{
		Models:   map[string]model.CostModel{target: model.A100Llama13B()},
		Replicas: 4,
		CrashCheck: func(replica int) bool {
			// Replica 0 dies at its first iteration boundary after 2ms of
			// virtual time, once.
			mu.Lock()
			defer mu.Unlock()
			if armed && replica == 0 && clk.Now() >= 2*time.Millisecond {
				armed = false
				return true
			}
			return false
		},
		OnCrash: func(replica int) {
			mu.Lock()
			crashed = append(crashed, replica)
			mu.Unlock()
		},
	})

	// Sequential call chains keep the replicas iterating — the crash
	// needs a later iteration boundary with work admitted and queued.
	const callers = 16
	const rounds = 6
	const tokens = 32
	const calls = callers * rounds
	errs := make([]error, callers)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < callers; i++ {
			i := i
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// Affinity keys pin a share of the calls to replica 0
					// so the crash has victims.
					if err := s.SubmitCall(Call{Model: target, Tokens: tokens, Affinity: uint64(i % 4)}); err != nil {
						errs[i] = err
						return
					}
				}
			})
		}
		wg.Wait()
	})

	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d failed: %v — crash recovery must be invisible to callers", i, err)
		}
	}
	st := s.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want exactly 1", st.Crashes)
	}
	if st.Requeued == 0 {
		t.Fatal("the crash requeued nothing — it had no victims")
	}
	if st.Tokens != calls*tokens {
		t.Fatalf("tokens = %d, want %d: requeue must not double-count submissions", st.Tokens, calls*tokens)
	}
	if st.ExecutedTokens != st.Tokens+st.LostTokens {
		t.Fatalf("ledger broken: executed %d != tokens %d + lost %d",
			st.ExecutedTokens, st.Tokens, st.LostTokens)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(crashed) != 1 || crashed[0] != 0 {
		t.Fatalf("OnCrash heard %v, want [0]", crashed)
	}
}

// TestReplicaCrashOnSingleReplica pins the n==1 self-requeue path: with
// nowhere else to go, victims requeue to the crashed replica's own fresh
// incarnation and still complete.
func TestReplicaCrashOnSingleReplica(t *testing.T) {
	clk := simclock.New()
	fired := false
	var mu sync.Mutex
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: model.A100Llama13B()},
		CrashCheck: func(replica int) bool {
			mu.Lock()
			defer mu.Unlock()
			if !fired && clk.Now() >= time.Millisecond {
				fired = true
				return true
			}
			return false
		},
	})
	const callers = 4
	const rounds = 4
	errs := make([]error, callers)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < callers; i++ {
			i := i
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := submit(s, target, 32); err != nil {
						errs[i] = err
						return
					}
				}
			})
		}
		wg.Wait()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d failed: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if st.ExecutedTokens != st.Tokens+st.LostTokens {
		t.Fatalf("ledger broken: executed %d != tokens %d + lost %d",
			st.ExecutedTokens, st.Tokens, st.LostTokens)
	}
}
