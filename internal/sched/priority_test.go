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

// stepOf is the 13B step time of one iteration whose calls compute the
// given positions.
func stepOf(positions ...int) time.Duration {
	batch := make([]model.BatchCall, len(positions))
	for i, n := range positions {
		batch[i].NewTokens = n
	}
	return model.A100Llama13B().StepTime(batch)
}

// TestInteractivePromptStepCarriesNoBatchPrompt: an interactive prompt
// that arrives while a batch prompt is being sliced runs its two slices in
// iterations that carry no batch prompt slice, so it pays for its own 200
// positions and not for 128 more beside each of them. The batch lane's
// decode run still rides both iterations, and the batch prompt, started
// and then skipped, is preempted once and resumes after the interactive
// prompt retires.
func TestInteractivePromptStepCarriesNoBatchPrompt(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	rec := &preemptRecorder{}
	var interDone time.Duration
	var decodeAt []time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(3)
		clk.Go("batch prompt", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 3000, Priority: Batch, OnPreempt: rec.hook})
		})
		clk.Sleep(5 * time.Millisecond)
		clk.Go("batch decode", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 4, Priority: Batch, Decode: true,
				OnProgress: func(int) { decodeAt = append(decodeAt, clk.Now()) }})
		})
		clk.Go("interactive prompt", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 200, Priority: Interactive})
			interDone = clk.Now()
		})
		wg.Wait()
	})
	// The batch prompt's first slice, then the interactive prompt's two
	// slices beside one decode token each, then the batch prompt again.
	s1 := stepOf(DefaultQuantum)
	s2 := s1 + stepOf(DefaultQuantum, 1)
	s3 := s2 + stepOf(72, 1)
	if interDone != s3 {
		t.Fatalf("interactive prompt done at %v, want %v (two iterations without a batch prompt slice)", interDone, s3)
	}
	wantDecode := []time.Duration{s2, s3, s3 + stepOf(DefaultQuantum, 1), s3 + 2*stepOf(DefaultQuantum, 1)}
	if len(decodeAt) != len(wantDecode) {
		t.Fatalf("decode tokens retired at %v, want %v", decodeAt, wantDecode)
	}
	for i := range wantDecode {
		if decodeAt[i] != wantDecode[i] {
			t.Fatalf("decode tokens retired at %v, want %v", decodeAt, wantDecode)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.events) != 2 || !rec.events[0] || rec.events[1] {
		t.Fatalf("batch prompt hooks = %v, want one preemption and one resume", rec.events)
	}
	if st := s.Stats(); st.Preemptions != 1 || st.Lanes[2].Preemptions != 1 {
		t.Fatalf("preemptions = %d (batch lane %d), want 1", st.Preemptions, st.Lanes[2].Preemptions)
	}
}

// TestSameLanePromptsShareAnIteration: two interactive prompts arriving
// together are packed into the same iterations — the rule keeps out only a
// less urgent lane's prompts, here the batch prompt they preempt.
func TestSameLanePromptsShareAnIteration(t *testing.T) {
	clk := simclock.New()
	s := newSched(clk)
	rec := &preemptRecorder{}
	var done [2]time.Duration
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1 + len(done))
		clk.Go("batch prompt", func() {
			defer wg.Done()
			s.SubmitCall(Call{Model: target, Tokens: 3000, Priority: Batch, OnPreempt: rec.hook})
		})
		clk.Sleep(5 * time.Millisecond)
		for i := range done {
			clk.Go("interactive prompt", func() {
				defer wg.Done()
				s.SubmitCall(Call{Model: target, Tokens: 200, Priority: Interactive})
				done[i] = clk.Now()
			})
		}
		wg.Wait()
	})
	want := stepOf(DefaultQuantum) + stepOf(DefaultQuantum, DefaultQuantum) + stepOf(72, 72)
	if done[0] != want || done[1] != want {
		t.Fatalf("interactive prompts done at %v and %v, want both at %v (sharing two iterations)", done[0], done[1], want)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.preempts != 1 || rec.resumes != 1 {
		t.Fatalf("batch prompt hooks = %v, want one preemption and one resume", rec.events)
	}
}

// TestOnePositionCallIsNotAPrompt: a non-decode call that computes one
// position (Session.Step, the slo sweep's per-token loop) neither keeps a
// less urgent prompt out of its iteration nor is kept out of one.
func TestOnePositionCallIsNotAPrompt(t *testing.T) {
	cases := []struct {
		name       string
		long, late Priority // the 3,000-token prompt's lane, the one-token call's
	}{
		{"does not trigger", Batch, Interactive},
		{"is not skipped", Interactive, Batch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			s := newSched(clk)
			var done time.Duration
			run(t, clk, func() {
				wg := clk.NewWaitGroup()
				wg.Add(2)
				clk.Go("prompt", func() {
					defer wg.Done()
					s.SubmitCall(Call{Model: target, Tokens: 3000, Priority: tc.long})
				})
				clk.Sleep(5 * time.Millisecond)
				clk.Go("one position", func() {
					defer wg.Done()
					s.SubmitCall(Call{Model: target, Tokens: 1, Priority: tc.late})
					done = clk.Now()
				})
				wg.Wait()
			})
			if want := stepOf(DefaultQuantum) + stepOf(1, DefaultQuantum); done != want {
				t.Fatalf("one-token call done at %v, want %v (beside the prompt's second slice)", done, want)
			}
			if st := s.Stats(); st.Preemptions != 0 {
				t.Fatalf("preemptions = %d, want 0", st.Preemptions)
			}
		})
	}
}

// TestStarvationFreedomUnderInteractiveSaturation holds the aging bound
// against interactive pressure of two kinds. When a closed-loop stream
// fills every iteration's step budget, aging must promote the batch call
// so it completes within bounded virtual time while the stream is still
// running — strict lanes without aging would starve it indefinitely. When
// the stream leaves budget to spare but puts a prompt in every iteration,
// the batch prompt is kept out of each until aging has promoted it to the
// interactive lane, and no longer.
func TestStarvationFreedomUnderInteractiveSaturation(t *testing.T) {
	t.Run("budget saturated", testStarvationBudgetSaturated)
	t.Run("back-to-back prompts", testStarvationBackToBackPrompts)
}

func testStarvationBudgetSaturated(t *testing.T) {
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

func testStarvationBackToBackPrompts(t *testing.T) {
	clk := simclock.New()
	const ageAfter = 50 * time.Millisecond
	const arrive = 10 * time.Millisecond
	s := New(clk, Config{
		Models: map[string]model.CostModel{target: model.A100Llama13B()},
		// One 16-token interactive prompt slice per iteration leaves 48
		// tokens of the budget free, so only the prompt rule keeps the
		// batch prompt out. Each interactive prompt is 20 slices long: the
		// one in flight when the batch prompt is promoted arrived before
		// it and still ranks first, so the promoted prompt packs second,
		// on its effective lane.
		PriorityPolicy: &Lanes{SliceTokens: 16, MaxStepTokens: 64, AgeAfter: ageAfter},
	})
	var stamps []time.Duration
	var streamLive atomic.Bool
	streamLive.Store(true)
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(2)
		clk.Go("interactive", func() {
			defer wg.Done()
			for clk.Now() < 2*time.Second {
				if err := s.SubmitCall(Call{Model: target, Tokens: 320, Priority: Interactive}); err != nil {
					return
				}
			}
		})
		clk.Go("batch", func() {
			defer wg.Done()
			clk.Sleep(arrive)
			err := s.SubmitCall(Call{Model: target, Tokens: 64, Priority: Batch,
				OnProgress: func(int) { stamps = append(stamps, clk.Now()) }})
			if err != nil {
				t.Errorf("batch call: %v", err)
			}
			if !streamLive.Load() {
				t.Error("interactive stream ended before the batch call completed")
			}
		})
		wg.Wait()
		streamLive.Store(false)
	})
	if len(stamps) != 4 {
		t.Fatalf("batch prompt advanced at %v, want four 16-token slices", stamps)
	}
	// Each slice waits out 2×ageAfter since the last (since arrival, for
	// the first), then at most one interactive-only iteration to the next
	// boundary, and ends one shared iteration later.
	lo := 2 * ageAfter
	hi := lo + stepOf(16) + stepOf(16, 16)
	last := arrive
	for i, at := range stamps {
		if gap := at - last; gap <= lo || gap > hi {
			t.Fatalf("slice %d retired %v after the last progress, want in (%v, %v] (stamps %v)", i, gap, lo, hi, stamps)
		}
		last = at
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
// head-of-line blocking lanes exist to remove — and an interactive prompt
// does not keep a batch prompt out of its iteration: every call competes
// in the one lane.
func TestFIFOPolicyIgnoresPriority(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models:         map[string]model.CostModel{target: model.A100Llama13B()},
		PriorityPolicy: FIFO{},
	})
	prefillTime := stepOf(3000)
	var interDone time.Duration
	var promptsDone [2]time.Duration
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
		// An interactive prompt, then a batch prompt behind it.
		for i, p := range []Priority{Interactive, Batch} {
			clk.Sleep(time.Millisecond)
			wg.Add(1)
			clk.Go("prompt", func() {
				defer wg.Done()
				s.SubmitCall(Call{Model: target, Tokens: 200 + 100*i, Priority: p})
				promptsDone[i] = clk.Now()
			})
		}
		wg.Wait()
	})
	if interDone < prefillTime {
		t.Fatalf("fifo interactive finished at %v, before the %v prefill: priorities leaked into fifo",
			interDone, prefillTime)
	}
	if want := prefillTime + stepOf(1, 200, 300); promptsDone[0] != want || promptsDone[1] != want {
		t.Fatalf("fifo prompts done at %v and %v, want both at %v (one iteration after the prefill)",
			promptsDone[0], promptsDone[1], want)
	}
	if st := s.Stats(); st.Preemptions != 0 {
		t.Fatalf("fifo preempted %d calls", st.Preemptions)
	}
}
