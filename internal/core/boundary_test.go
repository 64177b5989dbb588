package core_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// decodeBesidePrefill runs the paper's Figure 2 loop written by hand — a
// sampled Session.Step per token, each token published as it is drawn —
// beside a prefill of prefillTokens (2,048 in the tests that want company,
// 0 for none) on one replica with PrefillChunk 512 under the default lanes
// (the 128-token quantum is the tighter bound, so 2,048 tokens are 16
// iterations). between, when non-nil, runs in the decoder thread after
// each token is published and before the pred that extends the context
// with it. It returns the decoder's event stream, the instant the prefill
// finished and the drained kernel stats.
func decodeBesidePrefill(t *testing.T, prefillTokens int, between func(ctx *core.Ctx)) ([]core.ProcEvent, time.Duration, core.Stats) {
	t.Helper()
	clk := simclock.New()
	k := core.New(clk, core.Config{
		Models:         map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		PriorityPolicy: sched.DefaultLanes(),
		PrefillChunk:   512,
	})
	k.RegisterTool("noop", core.Tool{})
	decode := func(ctx *core.Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		s := lip.NewSession(ctx, f)
		d, err := s.Prefill("the quick brown fox")
		if err != nil {
			return err
		}
		sampler := &lip.Sampler{Temperature: 0.8, TopK: 40, Seed: 2}
		for i := 0; i < 24; i++ {
			tok := sampler.Sample(d)
			if tok == token.EOS {
				break
			}
			ctx.PublishToken(ctx.Detokenize([]token.ID{tok}))
			if between != nil {
				between(ctx)
			}
			if d, err = s.Step(tok); err != nil {
				return err
			}
		}
		return nil
	}
	var prefillDone time.Duration
	prefill := func(ctx *core.Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		toks := make([]token.ID, prefillTokens)
		pos := make([]int, len(toks))
		for i := range toks {
			toks[i], pos[i] = token.ID(100+i%50), i
		}
		_, err = ctx.Pred(f, toks, pos)
		prefillDone = ctx.Clock().Now()
		return err
	}
	var decoder, prefiller *core.Process
	done := make(chan struct{})
	go func() {
		clk.Go("driver", func() {
			decoder = k.Submit("alice", decode)
			if prefillTokens > 0 {
				prefiller = k.Submit("bob", prefill)
			}
		})
		clk.WaitQuiescent()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("simulation stalled: %v", clk.Snapshot())
	}
	defer clk.Shutdown()
	for _, p := range []*core.Process{decoder, prefiller} {
		if p == nil {
			continue
		}
		if err := p.Err(); err != nil {
			t.Fatalf("pid %d: %v", p.PID(), err)
		}
	}
	sub := decoder.Subscribe(0)
	defer sub.Close()
	var events []core.ProcEvent
	for {
		ev, ok := sub.Next(nil)
		if !ok {
			break
		}
		events = append(events, ev)
	}
	return events, prefillDone, k.Stats()
}

// tokenGapsBefore returns the gaps between consecutive token events
// published no later than end.
func tokenGapsBefore(events []core.ProcEvent, end time.Duration) []time.Duration {
	var gaps []time.Duration
	last := time.Duration(-1)
	for _, ev := range events {
		if ev.Kind != core.EventToken || ev.At > end {
			continue
		}
		if last >= 0 {
			gaps = append(gaps, ev.At-last)
		}
		last = ev.At
	}
	return gaps
}

// iteration is the GPU step a prefill slice takes with n one-token preds
// riding along.
func iteration(n int) time.Duration {
	calls := []model.BatchCall{{NewTokens: sched.DefaultQuantum}}
	for i := 0; i < n; i++ {
		calls = append(calls, model.BatchCall{NewTokens: 1})
	}
	return model.A100Llama13B().StepTime(calls)
}

// TestGenerateDecodesOneTokenPerIteration is the iteration-boundary order
// seen from a LIP: while the prefill is in flight every token of the
// decode loop comes exactly one GPU iteration after the last — the thread
// the step woke samples, publishes and resubmits before the next batch is
// cut — equal seeds give equal event streams, and the token ledger closes.
func TestGenerateDecodesOneTokenPerIteration(t *testing.T) {
	events, prefillDone, st := decodeBesidePrefill(t, 2048, nil)
	gaps := tokenGapsBefore(events, prefillDone)
	if len(gaps) < 12 {
		t.Fatalf("%d token gaps while the prefill was in flight, want at least 12", len(gaps))
	}
	for i, gap := range gaps {
		if gap != iteration(1) {
			t.Errorf("token %d came %v after token %d, want one iteration (%v)", i+1, gap, i, iteration(1))
		}
	}
	if again, _, _ := decodeBesidePrefill(t, 2048, nil); !reflect.DeepEqual(events, again) {
		t.Errorf("equal seeds, different event streams:\n%+v\n%+v", events, again)
	}
	if s := st.Sched; s.ExecutedTokens != s.Tokens+s.LostTokens {
		t.Errorf("executed %d tokens, submitted %d, lost %d", s.ExecutedTokens, s.Tokens, s.LostTokens)
	}
}

// TestGenerateAloneDecodesOneTokenPerStep is the same loop with the GPU to
// itself, the case in which every step drains the batch: the next token's
// pred arrives at the instant the last step retired and is stepped at that
// instant, so each token comes one solo decode step (20.58 ms) after the
// last, equal seeds give equal event streams, and the token ledger closes.
func TestGenerateAloneDecodesOneTokenPerStep(t *testing.T) {
	events, _, st := decodeBesidePrefill(t, 0, nil)
	gaps := tokenGapsBefore(events, math.MaxInt64)
	if len(gaps) < 12 {
		t.Fatalf("%d token gaps, want at least 12", len(gaps))
	}
	step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
	for i, gap := range gaps {
		if gap != step {
			t.Errorf("token %d came %v after token %d, want one decode step (%v)", i+1, gap, i, step)
		}
	}
	if again, _, _ := decodeBesidePrefill(t, 0, nil); !reflect.DeepEqual(events, again) {
		t.Errorf("equal seeds, different event streams:\n%+v\n%+v", events, again)
	}
	if s := st.Sched; s.ExecutedTokens != s.Tokens+s.LostTokens {
		t.Errorf("executed %d tokens, submitted %d, lost %d", s.ExecutedTokens, s.Tokens, s.LostTokens)
	}
}

// TestClockBlockBetweenPredsRejoinsOneBoundaryLater pins what the
// boundary's one yield does not cover. The replica gives the threads it
// woke one turn at the current instant; a thread that blocks on the clock
// during that turn, before its next SubmitCall — here a zero-latency
// tool, equally an ensureResident bill — is still parked when the batch
// is cut and rejoins one boundary later: two iterations per token, the
// first carrying the prefill slice alone. Widening or narrowing the yield
// moves these figures.
func TestClockBlockBetweenPredsRejoinsOneBoundaryLater(t *testing.T) {
	events, prefillDone, st := decodeBesidePrefill(t, 2048, func(ctx *core.Ctx) {
		if _, err := ctx.Call("noop", ""); err != nil {
			t.Errorf("noop tool: %v", err)
		}
	})
	gaps := tokenGapsBefore(events, prefillDone)
	if len(gaps) < 6 {
		t.Fatalf("%d token gaps while the prefill was in flight, want at least 6", len(gaps))
	}
	for i, gap := range gaps {
		if want := iteration(0) + iteration(1); gap != want {
			t.Errorf("token %d came %v after token %d, want two iterations (%v)", i+1, gap, i, want)
		}
	}
	if s := st.Sched; s.ExecutedTokens != s.Tokens+s.LostTokens {
		t.Errorf("executed %d tokens, submitted %d, lost %d", s.ExecutedTokens, s.Tokens, s.LostTokens)
	}
}
