package sched

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simclock"
)

const draftModel = "draft"

// specSched builds a single-replica scheduler with a target and a draft
// model registered, an immediate batching policy, and the given priority
// policy and prefill chunk.
func specSched(clk *simclock.Clock, prio PriorityPolicy, chunk int) *Scheduler {
	return New(clk, Config{
		Models: map[string]model.CostModel{
			target:     model.A100Llama13B(),
			draftModel: model.A100Llama1B(),
		},
		PriorityPolicy: prio,
		PrefillChunk:   chunk,
	})
}

// bitmap builds an acceptance bitmap of n positions from a generator.
func bitmap(n int, f func(i int) bool) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = f(i)
	}
	return b
}

// TestPlainDecodeAdvancesOneTokenPerIteration pins the autoregressive
// physics of Decode calls: without speculation a 16-token decode run is
// 16 sequential GPU iterations, each charging a 1-token step — no
// prefill-style slicing, regardless of the policy quantum.
func TestPlainDecodeAdvancesOneTokenPerIteration(t *testing.T) {
	clk := simclock.New()
	s := specSched(clk, DefaultLanes(), 0)
	const tokens = 16
	var elapsed time.Duration
	run(t, clk, func() {
		start := clk.Now()
		if err := s.SubmitCall(Call{Model: target, Tokens: tokens, Decode: true}); err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
		elapsed = clk.Now() - start
	})
	cost := model.A100Llama13B()
	want := time.Duration(tokens) * cost.StepTime([]model.BatchCall{{NewTokens: 1}})
	if elapsed != want {
		t.Fatalf("decode elapsed = %v, want %v (16 sequential 1-token steps)", elapsed, want)
	}
	st := s.Stats()
	if st.Steps != tokens || st.ExecutedTokens != tokens {
		t.Fatalf("steps = %d, executed = %d, want %d each", st.Steps, st.ExecutedTokens, tokens)
	}
}

// TestSpecFullAcceptance is the 100%-acceptance edge: every draft token
// verifies, so each round retires window+1 tokens (accepted run plus the
// verify pass's bonus token) and a 21-token run finishes in 5 iterations
// instead of 21 — with the ledger still exact.
func TestSpecFullAcceptance(t *testing.T) {
	clk := simclock.New()
	s := specSched(clk, DefaultLanes(), 0)
	const tokens = 21
	run(t, clk, func() {
		err := s.SubmitCall(Call{
			Model: target, Tokens: tokens, Decode: true,
			Spec: &SpecCall{
				Draft: draftModel, Window: 4,
				Accept: bitmap(tokens-1, func(int) bool { return true }),
			},
		})
		if err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	st := s.Stats()
	// Rounds: 4 spec rounds of 4 drafted / 5 retired (21 -> 16 -> 11 ->
	// 6 -> 1), then one plain verify step for the final token.
	if st.Steps != 5 {
		t.Fatalf("steps = %d, want 5", st.Steps)
	}
	if st.ExecutedTokens != tokens {
		t.Fatalf("executed = %d, want %d", st.ExecutedTokens, tokens)
	}
	if st.SpecRounds != 4 || st.SpecDrafted != 16 || st.SpecAccepted != 16 {
		t.Fatalf("spec counters = %d rounds / %d drafted / %d accepted, want 4/16/16",
			st.SpecRounds, st.SpecDrafted, st.SpecAccepted)
	}
}

// TestSpecZeroAcceptance is the 0%-acceptance edge: every draft is
// wrong, so each round retires exactly one token (the verify pass's
// correction) — never zero, so the run still terminates in N iterations
// — while the draft keeps proposing its full window.
func TestSpecZeroAcceptance(t *testing.T) {
	clk := simclock.New()
	s := specSched(clk, DefaultLanes(), 0)
	const tokens = 10
	run(t, clk, func() {
		err := s.SubmitCall(Call{
			Model: target, Tokens: tokens, Decode: true,
			Spec: &SpecCall{
				Draft: draftModel, Window: 4,
				Accept: bitmap(tokens-1, func(int) bool { return false }),
			},
		})
		if err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	st := s.Stats()
	if st.ExecutedTokens != tokens || st.Steps != tokens {
		t.Fatalf("executed = %d steps = %d, want %d each (one correction token per round)",
			st.ExecutedTokens, st.Steps, tokens)
	}
	if st.SpecAccepted != 0 {
		t.Fatalf("accepted = %d, want 0", st.SpecAccepted)
	}
	// The window is only ever cut by the run's end: six rounds draft 4
	// (10 down to 5 tokens left), then 3, 2, 1 (9 spec rounds total, then
	// the final plain step).
	if st.SpecRounds != tokens-1 || st.SpecDrafted != 4*6+3+2+1 {
		t.Fatalf("spec rounds = %d drafted = %d, want %d/%d",
			st.SpecRounds, st.SpecDrafted, tokens-1, 4*6+3+2+1)
	}
}

// TestSpecOscillatingAcceptance drives acceptance in alternating bursts —
// long all-accepted stretches then all-rejected ones — and checks both
// regimes: speedup over plain decode while the draft is hot, one token a
// round while it is cold, exact accounting throughout, and a
// byte-identical repeat run.
func TestSpecOscillatingAcceptance(t *testing.T) {
	const tokens = 256
	accept := bitmap(tokens-1, func(i int) bool { return i/32%2 == 0 })
	runOnce := func() Stats {
		clk := simclock.New()
		s := specSched(clk, DefaultLanes(), 0)
		run(t, clk, func() {
			err := s.SubmitCall(Call{
				Model: target, Tokens: tokens, Decode: true,
				Spec: &SpecCall{Draft: draftModel, Accept: accept},
			})
			if err != nil {
				t.Errorf("SubmitCall: %v", err)
			}
		})
		return s.Stats()
	}
	st := runOnce()
	if st.ExecutedTokens != tokens {
		t.Fatalf("executed = %d, want %d", st.ExecutedTokens, tokens)
	}
	// Hot stretches multiply throughput: far fewer iterations than
	// tokens. Cold stretches retire one token per round, so the step
	// count cannot collapse to tokens/(window+1) either.
	if st.Steps >= tokens || st.Steps <= int64(tokens)/(DefaultSpecMaxWindow+1) {
		t.Fatalf("steps = %d, want between %d and %d under oscillating acceptance",
			st.Steps, tokens/(DefaultSpecMaxWindow+1), tokens)
	}
	if st.SpecAccepted == 0 || st.SpecAccepted >= st.SpecDrafted {
		t.Fatalf("accepted = %d of %d drafted, want strictly between 0 and drafted",
			st.SpecAccepted, st.SpecDrafted)
	}
	again := runOnce()
	if st.Steps != again.Steps || st.SpecDrafted != again.SpecDrafted ||
		st.SpecAccepted != again.SpecAccepted || st.GPUBusy != again.GPUBusy {
		t.Fatalf("identical runs diverged:\n first %+v\nsecond %+v", st, again)
	}
}

// TestSpecPreemptionLedger preempts a speculative decode mid-run with an
// interactive burst: the OnPreempt hooks must pair up (KV unpinned while
// descheduled, re-pinned on resume), the call must finish, and the
// ledger must show every token executed exactly once — speculation never
// double-bills across preemption.
func TestSpecPreemptionLedger(t *testing.T) {
	clk := simclock.New()
	s := New(clk, Config{
		Models: map[string]model.CostModel{
			target:     model.A100Llama13B(),
			draftModel: model.A100Llama1B(),
		},
		// An 8-token step budget: the interactive burst fills it, so the
		// spec call is descheduled for the duration of the burst.
		PriorityPolicy: &Lanes{SliceTokens: 8, MaxStepTokens: 8, AgeAfter: -1},
	})
	const tokens = 64
	rec := &preemptRecorder{}
	run(t, clk, func() {
		wg := clk.NewWaitGroup()
		wg.Add(1)
		clk.Go("spec", func() {
			defer wg.Done()
			err := s.SubmitCall(Call{
				Model: target, Tokens: tokens, Decode: true, Priority: Batch,
				Spec: &SpecCall{
					Draft:  draftModel,
					Accept: bitmap(tokens-1, func(i int) bool { return i%2 == 0 }),
				},
				OnPreempt: rec.hook,
			})
			if err != nil {
				t.Errorf("SubmitCall: %v", err)
			}
		})
		wg.Add(1)
		clk.Go("burst", func() {
			defer wg.Done()
			// Let the spec call start, then monopolize the step budget.
			clk.Sleep(25 * time.Millisecond)
			for i := 0; i < 12; i++ {
				s.SubmitCall(Call{Model: target, Tokens: 8, Priority: Interactive})
			}
		})
		wg.Wait()
	})
	st := s.Stats()
	if st.ExecutedTokens != st.Tokens || st.LostTokens != 0 {
		t.Fatalf("ledger: executed = %d, tokens = %d, lost = %d — want executed == tokens, lost 0",
			st.ExecutedTokens, st.Tokens, st.LostTokens)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.preempts == 0 {
		t.Fatalf("spec call was never preempted; burst did not fill the budget")
	}
	if rec.preempts != rec.resumes {
		t.Fatalf("unpaired hooks: %d preempts, %d resumes", rec.preempts, rec.resumes)
	}
	for i, preempted := range rec.events {
		if preempted == (i%2 == 1) {
			t.Fatalf("hook order broken at %d: %v", i, rec.events)
		}
	}
}

// TestSpecCrashLedger crash-restarts the replica mid-speculation: the
// incarnation's progress is discarded as LostTokens, the re-executed
// call re-learns its draft window from its submission state, and the
// chaos invariant ExecutedTokens == Tokens + LostTokens holds exactly.
func TestSpecCrashLedger(t *testing.T) {
	clk := simclock.New()
	var mu sync.Mutex
	armed := true
	s := New(clk, Config{
		Models: map[string]model.CostModel{
			target:     model.A100Llama13B(),
			draftModel: model.A100Llama1B(),
		},
		PriorityPolicy: DefaultLanes(),
		CrashCheck: func(int) bool {
			mu.Lock()
			defer mu.Unlock()
			if armed && clk.Now() >= 100*time.Millisecond {
				armed = false
				return true
			}
			return false
		},
	})
	const tokens = 200
	run(t, clk, func() {
		err := s.SubmitCall(Call{
			Model: target, Tokens: tokens, Decode: true,
			Spec: &SpecCall{
				Draft:  draftModel,
				Accept: bitmap(tokens-1, func(i int) bool { return i%3 != 0 }),
			},
		})
		if err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	st := s.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if st.LostTokens == 0 {
		t.Fatalf("crash discarded no progress; fired too early or too late")
	}
	if st.ExecutedTokens != st.Tokens+st.LostTokens {
		t.Fatalf("ledger: executed = %d, tokens = %d, lost = %d — want executed == tokens + lost",
			st.ExecutedTokens, st.Tokens, st.LostTokens)
	}
}

// TestSpecValidation exercises every up-front rejection of a malformed
// speculative call: fifo policy, missing Decode, unknown or self draft
// model, a draft window outside [1, DefaultSpecMaxWindow] (0 is the
// default, so -1 stands in below 1), and a short acceptance bitmap.
func TestSpecValidation(t *testing.T) {
	ok := &SpecCall{Draft: draftModel, Accept: bitmap(7, func(int) bool { return true })}
	cases := []struct {
		name string
		prio PriorityPolicy
		call Call
		want string
	}{
		{"fifo policy", FIFO{},
			Call{Model: target, Tokens: 8, Decode: true, Spec: ok},
			"iteration-level priority policy"},
		{"spec without decode", nil,
			Call{Model: target, Tokens: 8, Spec: ok},
			"requires a decode call"},
		{"unknown draft", nil,
			Call{Model: target, Tokens: 8, Decode: true,
				Spec: &SpecCall{Draft: "nope", Accept: ok.Accept}},
			"unknown draft model"},
		{"draft is target", nil,
			Call{Model: target, Tokens: 8, Decode: true,
				Spec: &SpecCall{Draft: target, Accept: ok.Accept}},
			"is the target model"},
		{"window under 1", nil,
			Call{Model: target, Tokens: 8, Decode: true,
				Spec: &SpecCall{Draft: draftModel, Window: -1, Accept: ok.Accept}},
			"invalid draft window"},
		{"window over the bound", nil,
			Call{Model: target, Tokens: 8, Decode: true,
				Spec: &SpecCall{Draft: draftModel, Window: DefaultSpecMaxWindow + 1, Accept: ok.Accept}},
			"invalid draft window"},
		{"short bitmap", nil,
			Call{Model: target, Tokens: 64, Decode: true,
				Spec: &SpecCall{Draft: draftModel, Accept: bitmap(10, func(int) bool { return true })}},
			"acceptance bitmap"},
	}
	for _, tc := range cases {
		clk := simclock.New()
		prio := tc.prio
		if prio == nil {
			prio = DefaultLanes()
		}
		s := specSched(clk, prio, 0)
		errCh := make(chan error, 1)
		run(t, clk, func() { errCh <- s.SubmitCall(tc.call) })
		err := <-errCh
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestChunkedPrefillInterleavesUnderFIFO pins the Sarathi property the
// PrefillChunk knob exists for: under the fifo run-to-completion policy
// a 4096-token prefill normally holds the GPU for one monster step, so a
// 1-token call behind it waits the whole prefill. With PrefillChunk the
// prefill runs as bounded slices and the late call lands at the next
// iteration boundary.
func TestChunkedPrefillInterleavesUnderFIFO(t *testing.T) {
	const big = 4096
	const chunk = 256
	elapsedSmall := func(chunk int) time.Duration {
		clk := simclock.New()
		s := specSched(clk, FIFO{}, chunk)
		var d time.Duration
		run(t, clk, func() {
			wg := clk.NewWaitGroup()
			wg.Add(1)
			clk.Go("big", func() {
				defer wg.Done()
				s.SubmitCall(Call{Model: target, Tokens: big})
			})
			wg.Add(1)
			clk.Go("small", func() {
				defer wg.Done()
				// Arrive just after the big prefill's first step begins.
				clk.Sleep(5 * time.Millisecond)
				start := clk.Now()
				s.SubmitCall(Call{Model: target, Tokens: 1})
				d = clk.Now() - start
			})
			wg.Wait()
		})
		return d
	}
	unchunked := elapsedSmall(0)
	chunked := elapsedSmall(chunk)
	cost := model.A100Llama13B()
	fullStep := cost.StepTime([]model.BatchCall{{NewTokens: big}})
	if unchunked < fullStep-5*time.Millisecond {
		t.Fatalf("unchunked small call took %v, expected to wait out the %v monolithic prefill",
			unchunked, fullStep)
	}
	// Chunked, the wait is bounded by one chunk-sized step plus the
	// small call's own share of the next.
	bound := 2 * cost.StepTime([]model.BatchCall{{NewTokens: chunk}, {NewTokens: 1}})
	if chunked > bound {
		t.Fatalf("chunked small call took %v, want <= %v (prefill sliced to %d)",
			chunked, bound, chunk)
	}
}

// TestPrefillChunkTightensQuantum checks the slice bound is the tighter
// of the lane quantum and the prefill chunk.
func TestPrefillChunkTightensQuantum(t *testing.T) {
	clk := simclock.New()
	s := specSched(clk, DefaultLanes(), 64) // quantum 128, chunk 64
	run(t, clk, func() {
		if err := s.SubmitCall(Call{Model: target, Tokens: 512}); err != nil {
			t.Errorf("SubmitCall: %v", err)
		}
	})
	if st := s.Stats(); st.Steps != 512/64 {
		t.Fatalf("steps = %d, want %d (512 tokens in 64-token chunks)", st.Steps, 512/64)
	}
}
