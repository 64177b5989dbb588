package lip

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/token"
)

// specHarness is harness on a kernel that speculates decode runs on
// "draft" (default lanes policy, so decode calls qualify).
func specHarness(t *testing.T, body core.Program) *core.Kernel {
	t.Helper()
	return harnessWith(t, func(c *core.Config) { c.Spec = &core.SpecConfig{Draft: "draft"} }, body)
}

// streamedToken is one streamed token and the virtual instant it streamed.
type streamedToken struct {
	tok token.ID
	at  time.Duration
}

// genRun prefills prompt and generates up to max tokens with smp (nil =
// greedy) — per token through Generate, or as a decode run — recording the
// result and, when got is non-nil, every streamed token with its instant.
func genRun(prompt string, max int, smp *Sampler, decode bool, dst *GenResult, got *[]streamedToken) core.Program {
	return func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill(prompt); err != nil {
			return err
		}
		var stream func(token.ID)
		if got != nil {
			stream = func(tok token.ID) { *got = append(*got, streamedToken{tok, ctx.Clock().Now()}) }
		}
		var res GenResult
		var err error
		if decode {
			res, err = GenerateDecode(s, DecodeOptions{MaxTokens: max, Sampler: smp, Stream: stream})
		} else {
			res, err = Generate(s, GenOptions{MaxTokens: max, Sampler: smp, Stream: stream})
		}
		*dst = res
		return err
	}
}

// sameTokens fails unless a and b generated the same tokens.
func sameTokens(t *testing.T, what string, a, b GenResult) {
	t.Helper()
	if len(a.Tokens) != len(b.Tokens) {
		t.Fatalf("%s: lengths differ: %d vs %d", what, len(a.Tokens), len(b.Tokens))
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatalf("%s: token %d differs: %d vs %d", what, i, a.Tokens[i], b.Tokens[i])
		}
	}
	if a.HitEOS != b.HitEOS {
		t.Errorf("%s: HitEOS %v vs %v", what, a.HitEOS, b.HitEOS)
	}
}

// sampled is the sampler the sampled-run tests share, fresh per run.
func sampled() *Sampler { return &Sampler{Temperature: 0.7, TopP: 0.9, Seed: 7} }

// TestGenerateDecodeMatchesGenerate holds a decode run to the per-token
// loop, greedy and seeded-sampled: the same tokens, the sampler's stream
// advanced by the same draws, and — without speculation — every token
// streamed at the same virtual instant.
func TestGenerateDecodeMatchesGenerate(t *testing.T) {
	const prompt = "a prompt whose continuation we compute two ways"
	const max = 40
	for _, tc := range []struct {
		name    string
		sampler func() *Sampler
	}{
		{"greedy", func() *Sampler { return nil }},
		{"sampled", sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stepwise, decoded GenResult
			var stepStream, decStream []streamedToken
			stepSmp, decSmp := tc.sampler(), tc.sampler()
			harness(t, genRun(prompt, max, stepSmp, false, &stepwise, &stepStream))
			harness(t, genRun(prompt, max, decSmp, true, &decoded, &decStream))
			sameTokens(t, "decode vs stepwise", decoded, stepwise)
			if len(decoded.Tokens) < 2 {
				t.Fatalf("only %d tokens generated; the comparison needs a run", len(decoded.Tokens))
			}
			if stepSmp != nil && decSmp.draws != stepSmp.draws {
				t.Errorf("sampler spent %d draws as a decode run, %d per token", decSmp.draws, stepSmp.draws)
			}
			if len(decStream) != len(stepStream) {
				t.Fatalf("streamed %d tokens as a decode run, %d per token", len(decStream), len(stepStream))
			}
			for i := range stepStream {
				if decStream[i] != stepStream[i] {
					t.Fatalf("streamed token %d: %+v as a decode run, %+v per token", i, decStream[i], stepStream[i])
				}
			}
		})
	}
}

// TestGenerateDecodeUnderSpecMatchesPlain runs greedy and seeded-sampled
// decode runs on a speculating kernel: the same tokens as without
// speculation, the executor ran draft/verify rounds, and it accepted some
// but never more than it drafted.
func TestGenerateDecodeUnderSpecMatchesPlain(t *testing.T) {
	const prompt = "speculative decoding must not change results"
	const max = 48
	for _, tc := range []struct {
		name    string
		sampler func() *Sampler
	}{
		{"greedy", func() *Sampler { return nil }},
		{"sampled", sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plain, spec GenResult
			harness(t, genRun(prompt, max, tc.sampler(), false, &plain, nil))
			k := specHarness(t, genRun(prompt, max, tc.sampler(), true, &spec, nil))
			sameTokens(t, "spec vs plain", spec, plain)
			if len(plain.Tokens) < 8 {
				t.Fatalf("only %d tokens generated; the comparison needs a run", len(plain.Tokens))
			}
			st := k.Scheduler().Stats()
			if st.SpecRounds == 0 {
				t.Error("spec kernel ran no speculative rounds")
			}
			if st.SpecAccepted == 0 || st.SpecAccepted > st.SpecDrafted {
				t.Errorf("accepted %d of %d drafted, want some and no more", st.SpecAccepted, st.SpecDrafted)
			}
		})
	}
}

// TestGenerateDecodeChunkedStreaming streams a decode run committed in
// four-token chunks alone on the GPU: every token streams in order, one
// decode step after the last — inside a chunk as across a chunk boundary —
// and the first at the instant the prefill completed.
func TestGenerateDecodeChunkedStreaming(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("stream this generation in small chunks"); err != nil {
			return err
		}
		base, start := kv.Len(), ctx.Clock().Now()
		var streamed []streamedToken
		res, err := GenerateDecode(s, DecodeOptions{
			MaxTokens: 30,
			Chunk:     4,
			Stream:    func(tok token.ID) { streamed = append(streamed, streamedToken{tok, ctx.Clock().Now()}) },
		})
		if err != nil {
			return err
		}
		if len(streamed) != len(res.Tokens) || len(res.Tokens) < 9 {
			t.Fatalf("streamed %d tokens, result has %d (want at least 9, three chunks)", len(streamed), len(res.Tokens))
		}
		step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
		for i, st := range streamed {
			if st.tok != res.Tokens[i] {
				t.Fatalf("stream order broken at %d", i)
			}
			if want := start + time.Duration(i)*step; st.at != want {
				t.Errorf("token %d streamed at %v, want %v (%d decode steps after the prefill)", i, st.at, want, i)
			}
		}
		if kv.Len() != base+len(res.Tokens) {
			t.Errorf("KV grew by %d, generated %d", kv.Len()-base, len(res.Tokens))
		}
		return nil
	})
}

// TestGenerateDecodeStreamSurvivesCrash crash-restarts the replica in the
// middle of a speculating sampled decode run. The executor discards the
// run's progress and re-executes it, so the progress count goes back; the
// stream still carries every token exactly once, in order.
func TestGenerateDecodeStreamSurvivesCrash(t *testing.T) {
	checks := 0
	var res GenResult
	var streamed []streamedToken
	k := harnessWith(t, func(c *core.Config) {
		c.Spec = &core.SpecConfig{Draft: "draft"}
		// One boundary check per iteration, on the one replica actor: the
		// prefill is the first iteration, so the eighth is mid-run.
		c.CrashCheck = func(int) bool { checks++; return checks == 8 }
	}, genRun("a run the replica loses halfway", 48, sampled(), true, &res, &streamed))
	st := k.Scheduler().Stats()
	if st.Crashes != 1 || st.LostTokens == 0 {
		t.Fatalf("crashes = %d, lost = %d; want one crash that discarded decode progress", st.Crashes, st.LostTokens)
	}
	if len(streamed) != len(res.Tokens) {
		t.Fatalf("streamed %d tokens, generated %d", len(streamed), len(res.Tokens))
	}
	for i := range streamed {
		if streamed[i].tok != res.Tokens[i] {
			t.Fatalf("streamed token %d is %d, generated %d", i, streamed[i].tok, res.Tokens[i])
		}
		if i > 0 && streamed[i].at < streamed[i-1].at {
			t.Fatalf("token %d streamed before token %d", i, i-1)
		}
	}
}

// TestGenerateDecodeErrorKeepsStreamed runs a sampled decode run in
// four-token chunks into a user quota that refuses the second chunk. By
// then the first chunk's retirements have streamed five tokens; the result
// holds exactly those five, as Generate's would hold every token it
// streamed.
func TestGenerateDecodeErrorKeepsStreamed(t *testing.T) {
	prompt := []token.ID{100, 101, 102, 103, 104, 105, 106, 107}
	var res GenResult
	var streamed []token.ID
	var err error
	harnessWith(t, func(c *core.Config) {
		c.UserQuotas = map[string]int64{"u": int64(len(prompt)) + 4 + 2}
	}, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, perr := s.PrefillTokens(prompt); perr != nil {
			return perr
		}
		res, err = GenerateDecode(s, DecodeOptions{
			MaxTokens: 30,
			Sampler:   sampled(),
			Chunk:     4,
			Stream:    func(tok token.ID) { streamed = append(streamed, tok) },
		})
		return nil
	})
	if !errors.Is(err, core.ErrQuota) {
		t.Fatalf("err = %v, want the quota to refuse the second chunk", err)
	}
	if len(streamed) != 5 || len(res.Tokens) != len(streamed) {
		t.Fatalf("streamed %d tokens, result holds %d; want 5 and 5", len(streamed), len(res.Tokens))
	}
	for i := range streamed {
		if streamed[i] != res.Tokens[i] {
			t.Fatalf("streamed token %d is %d, result holds %d", i, streamed[i], res.Tokens[i])
		}
	}
}

func TestGenerateDecodeStopLeavesFinalTokenUncommitted(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := s.Prefill("stop after the third token"); err != nil {
			return err
		}
		base := kv.Len()
		n := 0
		res, err := GenerateDecode(s, DecodeOptions{
			MaxTokens: 20,
			Stop:      func(token.ID) bool { n++; return n == 3 },
		})
		if err != nil {
			return err
		}
		if len(res.Tokens) != 3 {
			t.Fatalf("generated %d tokens, want 3", len(res.Tokens))
		}
		// Matching Generate: the stop token is reported but not committed.
		if kv.Len() != base+2 {
			t.Errorf("KV grew by %d, want 2", kv.Len()-base)
		}
		return nil
	})
}

func TestGenerateDecodeValidation(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := GenerateDecode(s, DecodeOptions{MaxTokens: 5}); !errors.Is(err, ErrNoDist) {
			t.Errorf("before prefill: %v", err)
		}
		if _, err := GenerateDecode(s, DecodeOptions{}); err == nil {
			t.Error("MaxTokens 0 accepted")
		}
		if _, err := s.Prefill("p"); err != nil {
			return err
		}
		if _, err := GenerateDecode(s.WithModel("draft"), DecodeOptions{MaxTokens: 5}); err == nil {
			t.Error("non-default model accepted")
		}
		return nil
	})
}
