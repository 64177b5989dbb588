package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// smallVocab shrinks a model configuration to 48 ids and 16 candidates, so
// two unrelated distributions often draw the same token, and takes away
// its EOS mass, so a sampled chain runs its full length.
func smallVocab(c model.Config) model.Config {
	c.VocabSize, c.TopK, c.EOSBias = 48, 16, 0
	return c
}

// coupledU is the decode runs' draw for position i here: a fixed uniform,
// applied to whichever distribution the rule is asked about.
func coupledU(i int) float64 { return float64((i*7919+13)%1000) / 1000 }

// specOutcome is what the executor reports of one decode run alone on a
// speculating kernel, and what replaying its round rule over the bitmap
// the test expects predicts.
type specOutcome struct{ rounds, drafted, accepted int64 }

// replayRounds is the executor's round rule for a run alone on the GPU:
// each round drafts up to window tokens short of the run's end, accepts
// the leading run of true positions and retires it plus one.
func replayRounds(accept []bool, window int) specOutcome {
	var o specOutcome
	tokens := len(accept) + 1
	for done := 0; done < tokens-1; {
		w := min(window, tokens-done-1)
		acc := 0
		for acc < w && accept[done+acc] {
			acc++
		}
		o.rounds++
		o.drafted += int64(w)
		o.accepted += int64(acc)
		done += acc + 1
	}
	return o
}

// decodeOnSpecKernel prefills a prompt on a kernel whose default model
// target speculates on draft, walks a chain of up to n tokens from
// target's own distributions with draw (nil = greedy), and submits it as
// one PredDecode run, whose returned distributions must each equal the
// target's after its position. It returns the run's tokens, the bitmap
// want says the rule should produce (want sees the built draft and target
// distributions ahead of each position, and the token there), the
// executor's counters and the progress counts heard.
func decodeOnSpecKernel(t *testing.T, target, draft *model.Model, n int, draw func(int, model.Dist) token.ID,
	want func(i int, draftD, targetD model.Dist, tok token.ID) bool) (toks []token.ID, accept []bool, got specOutcome, progress []int) {
	t.Helper()
	clk := simclock.New()
	k := New(clk, Config{
		Models:       map[string]*model.Model{"target": target, "draft": draft},
		DefaultModel: "target",
		Spec:         &SpecConfig{Draft: "draft"},
	})
	runProgram(t, clk, k, func(ctx *Ctx) error {
		f, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		prompt := []token.ID{7, 11, 13, 17, 19, 23, 29, 31}
		pos := make([]int, len(prompt))
		for i := range pos {
			pos[i] = i
		}
		if _, err := ctx.Pred(f, prompt, pos); err != nil {
			return err
		}
		pick := draw
		if pick == nil {
			pick = func(_ int, d model.Dist) token.ID { return d.Greedy() }
		}
		h := f.Tail()
		var positions []int
		var after []model.CtxHash
		for i := 0; i < n; i++ {
			tok := pick(i, target.Next(h))
			if tok == token.EOS {
				break
			}
			accept = append(accept, want(i, draft.Next(h), target.Next(h), tok))
			toks = append(toks, tok)
			positions = append(positions, f.Len()+i)
			h = h.Extend(tok, f.Len()+i)
			after = append(after, h)
		}
		accept = accept[:len(accept)-1] // the final position is never drafted
		dists, err := ctx.PredDecode("", f, toks, positions, DecodeRun{
			Draw:     draw,
			Progress: func(r int) { progress = append(progress, r) },
		})
		if err != nil {
			return err
		}
		for i, d := range dists {
			if !reflect.DeepEqual(d.Candidates(), target.Next(after[i]).Candidates()) {
				t.Errorf("position %d: PredDecode's distribution is not the target's", i)
			}
		}
		return nil
	})
	clk.Shutdown()
	st := k.Scheduler().Stats()
	return toks, accept, specOutcome{st.SpecRounds, st.SpecDrafted, st.SpecAccepted}, progress
}

// sampleAt inverts d's candidate CDF at u; tail mass maps to the least
// probable candidate. It is the coupled draw the acceptance rule is
// checked against.
func sampleAt(d model.Dist, u float64) token.ID {
	cands := d.Candidates()
	var acc float64
	for _, c := range cands {
		acc += c.Prob
		if u < acc {
			return c.Token
		}
	}
	return cands[len(cands)-1].Token
}

// TestDecodeRunAcceptanceRule pins the one acceptance rule of greedy and
// sampled decode runs — position i is accepted iff the draft's proposal
// for it, the run's own draw applied to the draft's distribution, equals
// the token the run commits — through the executor's counters:
//   - a sampled run whose draft always echoes the target accepts every
//     drafted position;
//   - against an unaligned draft it accepts exactly where the coupled draw
//     agrees by chance (a small vocabulary makes that happen), no more;
//   - a greedy run's bitmap is the one the kernel always built, the
//     draft's argmax against the target's.
//
// Each run also hears its progress end at its length.
func TestDecodeRunAcceptanceRule(t *testing.T) {
	sample := func(i int, d model.Dist) token.ID { return sampleAt(d, coupledU(i)) }
	coupled := func(i int, draftD, _ model.Dist, tok token.ID) bool { return sampleAt(draftD, coupledU(i)) == tok }
	target := model.New(smallVocab(model.Llama13B()))
	big := model.New(model.Llama13B())
	for _, tc := range []struct {
		name          string
		target, draft *model.Model
		draw          func(int, model.Dist) token.ID
		want          func(int, model.Dist, model.Dist, token.ID) bool
		check         func(t *testing.T, o specOutcome)
	}{
		{"sampled/full agreement", target, model.New(smallVocab(model.AlignedDraft(target, 1.0))), sample,
			func(int, model.Dist, model.Dist, token.ID) bool { return true },
			func(t *testing.T, o specOutcome) {
				if o.accepted != o.drafted {
					t.Errorf("accepted %d of %d drafted, want all", o.accepted, o.drafted)
				}
			}},
		{"sampled/no agreement", target, model.New(smallVocab(model.AlignedDraft(target, 0))), sample, coupled,
			func(t *testing.T, o specOutcome) {
				if o.accepted == 0 || o.accepted == o.drafted {
					t.Errorf("accepted %d of %d drafted, want some by chance, not all", o.accepted, o.drafted)
				}
			}},
		{"greedy", big, model.New(model.AlignedDraft(big, 0.85)), nil,
			func(_ int, draftD, targetD model.Dist, _ token.ID) bool { return draftD.Greedy() == targetD.Greedy() },
			func(t *testing.T, o specOutcome) {
				if o.accepted == 0 || o.accepted == o.drafted {
					t.Errorf("accepted %d of %d drafted, want the 85 %% draft to miss somewhere", o.accepted, o.drafted)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			toks, accept, got, progress := decodeOnSpecKernel(t, tc.target, tc.draft, 64, tc.draw, tc.want)
			if len(toks) < 16 {
				t.Fatalf("the chain has %d tokens, want a run", len(toks))
			}
			if want := replayRounds(accept, sched.DefaultSpecWindow); got != want {
				t.Fatalf("executor reported %+v, the rule predicts %+v", got, want)
			}
			tc.check(t, got)
			if len(progress) == 0 || progress[len(progress)-1] != len(toks) {
				t.Errorf("progress heard %v, want it to end at %d", progress, len(toks))
			}
		})
	}
}
