package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

const target = "llama-13b"

// submit is the test shorthand for the single SubmitCall entry point.
func submit(s *Scheduler, model string, tokens int) error {
	return s.SubmitCall(Call{Model: model, Tokens: tokens})
}

func newSched(clk *simclock.Clock) *Scheduler {
	return New(clk, Config{
		Models: map[string]model.CostModel{
			target:  model.A100Llama13B(),
			"draft": model.A100Llama1B(),
		},
	})
}

func run(t *testing.T, clk *simclock.Clock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		clk.Go("root", fn)
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("stalled at %v", clk.Now())
	}
	clk.Shutdown()
}

func TestSingleCallCost(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	cost := model.A100Llama13B()
	var elapsed time.Duration
	run(t, clk, func() {
		start := clk.Now()
		if err := submit(s, target, 1); err != nil {
			t.Errorf("Submit: %v", err)
		}
		elapsed = clk.Now() - start
	})
	want := cost.StepTime([]model.BatchCall{{NewTokens: 1}})
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	st := s.Stats()
	if st.Calls != 1 || st.Batches != 1 || st.Steps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentCallsBatch(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	cost := model.A100Llama13B()
	single := cost.StepTime([]model.BatchCall{{NewTokens: 1}})
	const n = 16
	var end time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < n; i++ {
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				submit(s, target, 1)
			})
		}
		wg.Wait()
		end = clk.Now()
	})
	// All 16 arrive at t=0 and share GPU steps: total well under 16
	// sequential steps.
	if end >= time.Duration(n)*single {
		t.Fatalf("no batching: %v >= %v", end, time.Duration(n)*single)
	}
	st := s.Stats()
	if st.Calls != n {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.Batches < 1 || st.Batches > 3 {
		t.Fatalf("batches = %d, want 1-3", st.Batches)
	}
}

func TestIterationLevelSharingDuringLongPrefill(t *testing.T) {
	// Under run-to-completion a 3000-token prefill held the GPU for
	// ~860ms and every decode queued behind it. Iteration-level slicing
	// must let decodes arriving mid-prefill join the running batch at the
	// next iteration boundary and finish long before the prefill does.
	clk := simclock.New()
	s := newSched(clk)
	var prefillDone, lastDecode int64
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("prefill", func() {
			defer wg.Done()
			submit(s, target, 3000)
			atomic.StoreInt64(&prefillDone, int64(clk.Now()))
		})
		clk.Sleep(5 * time.Millisecond)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			clk.Go("decode", func() {
				defer wg.Done()
				submit(s, target, 1)
				if now := int64(clk.Now()); now > atomic.LoadInt64(&lastDecode) {
					atomic.StoreInt64(&lastDecode, now)
				}
			})
		}
		wg.Wait()
	})
	if lastDecode >= prefillDone {
		t.Fatalf("decodes finished at %v, after the prefill at %v (no iteration-level sharing)",
			time.Duration(lastDecode), time.Duration(prefillDone))
	}
	// The prefill was sliced across many iterations, not run in one step.
	if st := s.Stats(); st.Steps < 10 {
		t.Fatalf("steps = %d, want the prefill sliced across many iterations", st.Steps)
	}
}

func TestMaxBatchTokensSplitsSteps(t *testing.T) {
	clk := simclock.New()
	cm := model.A100Llama13B()
	cm.MaxBatchTokens = 100
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: cm},
	})
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				submit(s, target, 80) // 4×80 = 320 tokens > 100/step
			})
		}
		wg.Wait()
	})
	st := s.Stats()
	if st.Steps != 4 {
		t.Fatalf("steps = %d, want 4 (one per 80-token call)", st.Steps)
	}
	if st.Batches != st.Steps {
		t.Fatalf("batches = %d, want %d (batches and steps both count iterations)", st.Batches, st.Steps)
	}
}

func TestOversizedCallStillRuns(t *testing.T) {
	clk := simclock.New()
	cm := model.A100Llama13B()
	cm.MaxBatchTokens = 100
	s := New(clk, Config{Models: map[string]model.CostModel{target: cm}})
	run(t, clk, func() {
		if err := submit(s, target, 500); err != nil {
			t.Errorf("oversized call: %v", err)
		}
	})
	// 500 tokens at the default 128-token quantum: four iterations, each
	// allowed past the 100-token cap because an oversized slice always
	// runs when it leads the step.
	if st := s.Stats(); st.Steps != 4 {
		t.Fatalf("steps = %d, want 4", st.Steps)
	}
}

func TestMultiModelGrouping(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			clk.Go("t", func() { defer wg.Done(); submit(s, target, 1) })
			wg.Add(1)
			clk.Go("d", func() { defer wg.Done(); submit(s, "draft", 1) })
		}
		wg.Wait()
	})
	st := s.Stats()
	if st.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (one per model: a forward pass runs one model)", st.Steps)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	run(t, clk, func() {
		if err := submit(s, "gpt-7", 1); err == nil {
			t.Error("unknown model accepted")
		}
		if err := submit(s, target, 0); err == nil {
			t.Error("zero tokens accepted")
		}
	})
}

func TestUtilizationAndQueueDelay(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			clk.Go("caller", func() {
				defer wg.Done()
				submit(s, target, 1)
			})
		}
		wg.Wait()
		clk.Sleep(time.Second) // idle tail drags utilization below 1
	})
	st := s.Stats()
	if st.Utilization <= 0 || st.Utilization >= 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
	if st.GPUBusy == 0 {
		t.Fatal("no busy time recorded")
	}
	// Four one-token calls are four advances, one delay sample each.
	if n := s.LaneDelay(Normal).Count(); n != 4 {
		t.Fatalf("delay samples = %d", n)
	}
}

func TestSchedulerShutdown(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	errCh := make(chan error, 1)
	clk.Go("caller", func() {
		// Block the GPU then shut down mid-flight.
		errCh <- submit(s, target, 3000)
	})
	time.Sleep(20 * time.Millisecond)
	clk.Shutdown()
	select {
	case err := <-errCh:
		if err == nil {
			t.Log("call completed before shutdown (acceptable)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not return after shutdown")
	}
}
