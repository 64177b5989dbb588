package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

// progressRecorder is an OnProgress hook that keeps every count it hears
// and the virtual instant it heard it.
type progressRecorder struct {
	clk    *simclock.Clock
	mu     sync.Mutex
	counts []int
	at     []time.Duration
}

func (p *progressRecorder) hook(retired int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts = append(p.counts, retired)
	p.at = append(p.at, p.clk.Now())
}

// replaySpec is the executor's round rule over an acceptance bitmap for a
// call running alone: each round drafts up to window tokens short of the
// run's end and retires the leading accepted run plus one; the final
// position is a plain verify step. It returns the retired count after
// every iteration.
func replaySpec(accept []bool, tokens, window int) []int {
	var counts []int
	done := 0
	for done < tokens {
		w := min(window, tokens-done-1)
		acc := 0
		for acc < w && accept[done+acc] {
			acc++
		}
		done += acc + 1
		counts = append(counts, done)
	}
	return counts
}

// TestProgressHookOncePerAdvancingIteration pins OnProgress on the two
// paths a decode run takes. A speculating run alone on the GPU hears one
// count per iteration — exactly the executor's round rule — ending at
// Tokens, each at the end of its step. A plain batch-lane run that an
// interactive burst preempts hears nothing while descheduled and one count
// per iteration it stepped: 1, 2, …, Tokens.
func TestProgressHookOncePerAdvancingIteration(t *testing.T) {
	t.Run("spec", func(t *testing.T) {
		clk := simclock.New()
		s := specSched(clk, DefaultLanes(), 0)
		const tokens = 40
		accept := bitmap(tokens-1, func(i int) bool { return i%5 != 2 })
		rec := &progressRecorder{clk: clk}
		run(t, clk, func() {
			err := s.SubmitCall(Call{
				Model: target, Tokens: tokens, Decode: true,
				Spec:       &SpecCall{Draft: draftModel, Accept: accept},
				OnProgress: rec.hook,
			})
			if err != nil {
				t.Errorf("SubmitCall: %v", err)
			}
		})
		want := replaySpec(accept, tokens, DefaultSpecWindow)
		if len(rec.counts) != len(want) {
			t.Fatalf("hook heard %v, want %v", rec.counts, want)
		}
		for i := range want {
			if rec.counts[i] != want[i] {
				t.Fatalf("hook heard %v, want %v", rec.counts, want)
			}
		}
		if st := s.Stats(); int64(len(rec.counts)) != st.Steps {
			t.Errorf("%d hook calls for %d iterations of a call running alone", len(rec.counts), st.Steps)
		}
		// Each count is heard at the end of its own step: the last one at
		// the instant the call completed.
		for i := 1; i < len(rec.at); i++ {
			if rec.at[i] <= rec.at[i-1] {
				t.Fatalf("counts %d and %d heard at %v and %v", i-1, i, rec.at[i-1], rec.at[i])
			}
		}
	})
	t.Run("preempted", func(t *testing.T) {
		clk := simclock.New()
		s := New(clk, Config{
			Models:         map[string]model.CostModel{target: model.A100Llama13B()},
			PriorityPolicy: &Lanes{SliceTokens: 8, MaxStepTokens: 8, AgeAfter: -1},
		})
		const tokens = 32
		rec := &progressRecorder{clk: clk}
		pre := &preemptRecorder{}
		run(t, clk, func() {
			wg := clk.NewWaitGroup()
			wg.Add(2)
			clk.Go("decode", func() {
				defer wg.Done()
				err := s.SubmitCall(Call{Model: target, Tokens: tokens, Decode: true, Priority: Batch,
					OnPreempt: pre.hook, OnProgress: rec.hook})
				if err != nil {
					t.Errorf("SubmitCall: %v", err)
				}
			})
			clk.Go("burst", func() {
				defer wg.Done()
				clk.Sleep(100 * time.Millisecond)
				for i := 0; i < 6; i++ {
					s.SubmitCall(Call{Model: target, Tokens: 8, Priority: Interactive})
				}
			})
			wg.Wait()
		})
		if pre.preempts == 0 {
			t.Fatal("the decode run was never preempted; the burst did not fill the budget")
		}
		if len(rec.counts) != tokens {
			t.Fatalf("%d hook calls for a %d-token plain decode run: %v", len(rec.counts), tokens, rec.counts)
		}
		for i, n := range rec.counts {
			if n != i+1 {
				t.Fatalf("hook heard %v, want 1, 2, …, %d", rec.counts, tokens)
			}
		}
	})
}

// TestProgressHookAfterCrash crash-restarts the replica in the middle of a
// plain decode run. The count goes back once, to 1 on the first iteration
// of the re-executed call, and ends at Tokens; every executed token,
// discarded or not, was heard exactly once.
func TestProgressHookAfterCrash(t *testing.T) {
	clk := simclock.New()
	checks := 0
	s := New(clk, Config{
		Models:         map[string]model.CostModel{target: model.A100Llama13B()},
		PriorityPolicy: DefaultLanes(),
		// Boundary checks run on the one replica actor, one per iteration.
		CrashCheck: func(int) bool { checks++; return checks == 20 },
	})
	const tokens = 50
	rec := &progressRecorder{clk: clk}
	run(t, clk, func() {
		if err := s.SubmitCall(Call{Model: target, Tokens: tokens, Decode: true, OnProgress: rec.hook}); err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	st := s.Stats()
	if st.Crashes != 1 || st.LostTokens == 0 {
		t.Fatalf("crashes = %d, lost = %d; want one crash that discarded progress", st.Crashes, st.LostTokens)
	}
	if int64(len(rec.counts)) != st.ExecutedTokens {
		t.Fatalf("%d hook calls, %d executed tokens", len(rec.counts), st.ExecutedTokens)
	}
	backs := 0
	for i := 1; i < len(rec.counts); i++ {
		switch d := rec.counts[i] - rec.counts[i-1]; {
		case d == 1:
		case rec.counts[i] == 1:
			backs++
		default:
			t.Fatalf("count %d -> %d at call %d", rec.counts[i-1], rec.counts[i], i)
		}
	}
	if backs != 1 || rec.counts[len(rec.counts)-1] != tokens {
		t.Fatalf("hook heard %v; want one restart and a final count of %d", rec.counts, tokens)
	}
}

// TestProgressHookSilentAfterShutdownReturn shuts the clock down in the
// middle of a long decode run, while the replica is most likely inside the
// call's OnProgress. SubmitCall returns ErrShutdown, and from then on the
// hook must never run: the caller's write after SubmitCall returns is
// read by no hook (a data race under -race), and a hook that starts after
// it is counted.
func TestProgressHookSilentAfterShutdownReturn(t *testing.T) {
	for round := 0; round < 10; round++ {
		clk := simclock.New()
		s := newSched(clk)
		var late atomic.Bool
		returned := false // written by the caller, read by the hook
		hook := func(int) {
			if returned {
				late.Store(true)
			}
			// Hold the replica inside the hook for most of its wall time,
			// so the shutdown below lands here.
			time.Sleep(20 * time.Microsecond)
			if returned {
				late.Store(true)
			}
		}
		errCh := make(chan error, 1)
		clk.Go("decode", func() {
			err := s.SubmitCall(Call{Model: target, Tokens: 1 << 20, Decode: true, OnProgress: hook})
			returned = true
			errCh <- err
		})
		time.Sleep(2 * time.Millisecond)
		clk.Shutdown()
		select {
		case err := <-errCh:
			if !errors.Is(err, simclock.ErrShutdown) {
				t.Fatalf("round %d: SubmitCall = %v, want ErrShutdown", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: SubmitCall did not return after shutdown", round)
		}
		// Give a replica that is wrongly still running the hook time to be
		// caught at it.
		time.Sleep(time.Millisecond)
		if late.Load() {
			t.Fatalf("round %d: OnProgress ran after SubmitCall returned", round)
		}
	}
}
