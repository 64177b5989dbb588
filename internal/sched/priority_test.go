package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

func TestParsePriority(t *testing.T) {
	cases := map[string]Priority{
		"":            Normal,
		"normal":      Normal,
		"interactive": Interactive,
		"batch":       Batch,
	}
	for in, want := range cases {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
	for _, p := range Priorities {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestPriorityPolicyRegistry(t *testing.T) {
	for _, name := range PriorityPolicyNames() {
		p, err := NewPriorityPolicy(name)
		if err != nil {
			t.Fatalf("NewPriorityPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPriorityPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := NewPriorityPolicy(""); err != nil || p.Name() != "lanes" {
		t.Fatalf("default priority policy: %v, %v", p, err)
	}
	if _, err := NewPriorityPolicy("nope"); err == nil {
		t.Fatal("unknown priority policy accepted")
	}
}

func TestLanesAging(t *testing.T) {
	l := &Lanes{AgeAfter: 100 * time.Millisecond}
	cases := []struct {
		p      Priority
		waited time.Duration
		want   Priority
	}{
		{Batch, 0, Batch},
		{Batch, 99 * time.Millisecond, Batch},
		{Batch, 100 * time.Millisecond, Normal},
		{Batch, 200 * time.Millisecond, Interactive},
		{Batch, time.Hour, Interactive}, // clamped
		{Normal, 100 * time.Millisecond, Interactive},
		{Interactive, time.Hour, Interactive},
	}
	for _, tc := range cases {
		if got := l.Effective(tc.p, tc.waited); got != tc.want {
			t.Errorf("Effective(%v, %v) = %v, want %v", tc.p, tc.waited, got, tc.want)
		}
	}
	noAge := &Lanes{}
	noAge.AgeAfter = -1
	if got := noAge.Effective(Batch, time.Hour); got != Batch {
		t.Errorf("aging disabled but Effective(Batch) = %v", got)
	}
}

// TestInteractiveJumpsBatchQueue submits a batch call and an interactive
// call together: the interactive one must execute first even though the
// batch call arrived earlier.
func TestInteractiveJumpsBatchQueue(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models:         map[string]model.CostModel{target: model.A100Llama13B()},
		PriorityPolicy: &Lanes{SliceTokens: 64, MaxStepTokens: 64},
	})
	var batchDone, interDone time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("batch", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 256, Priority: Batch})
			batchDone = clk.Now()
		})
		clk.Sleep(time.Millisecond)
		wg.Add(1)
		clk.Go("inter", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 8, Priority: Interactive})
			interDone = clk.Now()
		})
		wg.Wait()
	})
	if interDone >= batchDone {
		t.Fatalf("interactive finished at %v, batch at %v; want interactive first", interDone, batchDone)
	}
	st := s.Stats()
	if st.Lanes[0].Lane != "interactive" || st.Lanes[0].Calls != 1 {
		t.Fatalf("interactive lane stats = %+v", st.Lanes)
	}
	if st.Lanes[2].Lane != "batch" || st.Lanes[2].Calls != 1 {
		t.Fatalf("batch lane stats = %+v", st.Lanes)
	}
}

// TestStarvationFreedomUnderInteractiveSaturation drives a saturating
// closed-loop interactive stream that alone fills every iteration's step
// budget, plus one batch call. Aging must promote the batch call so it
// completes within bounded virtual time while the stream is still
// running — strict lanes without aging would starve it indefinitely.
func TestStarvationFreedomUnderInteractiveSaturation(t *testing.T) {
	clk := simclock.New()
	const ageAfter = 50 * time.Millisecond
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: model.A100Llama13B()},
		// Step budget of 32 tokens: two 16-token interactive calls fill
		// it, so the batch call only ever runs on the strength of aging.
		PriorityPolicy: &Lanes{SliceTokens: 16, MaxStepTokens: 32, AgeAfter: ageAfter},
	})
	var batchDone int64
	var streamLive atomic.Bool
	streamLive.Store(true)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		// Three closed-loop interactive clients: at least two calls are
		// always queued or stepping, saturating the 32-token budget.
		for i := 0; i < 3; i++ {
			wg.Add(1)
			clk.Go("interactive", func() {
				defer wg.Done()
				for clk.Now() < 2*time.Second {
					if err := s.SubmitCall(Call{Model: target, Tokens: 16, Priority: Interactive}); err != nil {
						return
					}
				}
			})
		}
		wg.Add(1)
		clk.Go("batch", func() {
			defer wg.Done()
			clk.Sleep(10 * time.Millisecond) // arrive after the stream is rolling
			if err := s.SubmitCall(Call{Model: target, Tokens: 64, Priority: Batch}); err != nil {
				t.Errorf("batch call: %v", err)
				return
			}
			atomic.StoreInt64(&batchDone, int64(clk.Now()))
			if !streamLive.Load() {
				t.Error("interactive stream ended before the batch call completed")
			}
		})
		wg.Wait()
		streamLive.Store(false)
	})
	done := time.Duration(atomic.LoadInt64(&batchDone))
	if done == 0 {
		t.Fatal("batch call never completed: starved")
	}
	// Promotion to the interactive lane takes 2×ageAfter; after that the
	// batch call's older arrival time wins within the lane and its four
	// 16-token slices run in consecutive iterations. Allow generous
	// slack over that bound — the point is boundedness.
	if bound := 10*time.Millisecond + 2*ageAfter + 500*time.Millisecond; done > bound {
		t.Fatalf("aged batch call completed at %v, want within %v", done, bound)
	}
}

// preemptRecorder tracks OnPreempt invocations for one call.
type preemptRecorder struct {
	mu       sync.Mutex
	events   []bool
	preempts int
	resumes  int
}

func (p *preemptRecorder) hook(preempted bool) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, preempted)
	if preempted {
		p.preempts++
	} else {
		p.resumes++
	}
	return 0
}

// TestPreemptionAtIterationBoundary checks the iteration-boundary
// preemption contract: a mid-flight batch call descheduled by interactive
// pressure sees paired OnPreempt(true)/OnPreempt(false) hooks, completes,
// and every submitted token is executed exactly once.
func TestPreemptionAtIterationBoundary(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: model.A100Llama13B()},
		// No aging: interactive work always wins the 8-token budget, so
		// the batch call is preempted for as long as the burst lasts.
		PriorityPolicy: &Lanes{SliceTokens: 8, MaxStepTokens: 8, AgeAfter: -1},
	})
	rec := &preemptRecorder{}
	const batchTokens = 48
	const interCalls = 6
	var batchErr error
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("batch", func() {
			defer wg.Done()
			batchErr = s.SubmitCall(Call{
				Model: target, Tokens: batchTokens, Priority: Batch,
				OnPreempt: rec.hook,
			})
		})
		// Let the batch call start stepping, then burst interactive calls
		// that evict it from the step.
		clk.Sleep(25 * time.Millisecond)
		for i := 0; i < interCalls; i++ {
			wg.Add(1)
			clk.Go("inter", func() {
				defer wg.Done()
				s.SubmitCall(Call{Model: target, Tokens: 8, Priority: Interactive})
			})
			clk.Sleep(10 * time.Millisecond)
		}
		wg.Wait()
	})
	if batchErr != nil {
		t.Fatalf("preempted call failed: %v", batchErr)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.preempts == 0 {
		t.Fatal("batch call was never preempted")
	}
	if rec.preempts != rec.resumes {
		t.Fatalf("unpaired hooks: %d preempts, %d resumes (%v)", rec.preempts, rec.resumes, rec.events)
	}
	// Hooks must strictly alternate, starting with a preemption.
	for i, ev := range rec.events {
		if want := i%2 == 0; ev != want {
			t.Fatalf("hook sequence not alternating at %d: %v", i, rec.events)
		}
	}
	st := s.Stats()
	if st.Preemptions != int64(rec.preempts) {
		t.Fatalf("Stats.Preemptions = %d, recorder saw %d", st.Preemptions, rec.preempts)
	}
	if st.Lanes[2].Lane != "batch" || st.Lanes[2].Preemptions != int64(rec.preempts) {
		t.Fatalf("batch lane preemptions = %+v", st.Lanes)
	}
	// Every submitted token executed exactly once: nothing lost to
	// preemption, nothing replayed on resume.
	want := int64(batchTokens + interCalls*8)
	if st.Tokens != want || st.ExecutedTokens != want {
		t.Fatalf("submitted %d, executed %d, want both %d", st.Tokens, st.ExecutedTokens, want)
	}
}

// TestFIFOPolicyIgnoresPriority pins the baseline: under fifo, an
// interactive call queued behind a long batch prefill waits for it — the
// head-of-line blocking lanes exist to remove.
func TestFIFOPolicyIgnoresPriority(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models:         map[string]model.CostModel{target: model.A100Llama13B()},
		PriorityPolicy: FIFO{},
	})
	cost := model.A100Llama13B()
	prefillTime := cost.StepTime([]model.BatchCall{{NewTokens: 3000}})
	var interDone time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("batch", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 3000, Priority: Batch})
		})
		clk.Sleep(5 * time.Millisecond)
		wg.Add(1)
		clk.Go("inter", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 1, Priority: Interactive})
			interDone = clk.Now()
		})
		wg.Wait()
	})
	if interDone < prefillTime {
		t.Fatalf("fifo interactive finished at %v, before the %v prefill: priorities leaked into fifo",
			interDone, prefillTime)
	}
	if st := s.Stats(); st.Preemptions != 0 {
		t.Fatalf("fifo preempted %d calls", st.Preemptions)
	}
}
