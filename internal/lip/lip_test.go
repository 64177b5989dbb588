package lip

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// harness runs a LIP body against a fresh kernel and fails on error.
func harness(t *testing.T, body core.Program) *core.Kernel {
	t.Helper()
	return harnessWith(t, func(*core.Config) {}, body)
}

// harnessWith is harness on a kernel that edit adjusts: llama-13b as the
// default model beside "draft", a draft that agrees with it on 85 % of
// contexts.
func harnessWith(t *testing.T, edit func(*core.Config), body core.Program) *core.Kernel {
	t.Helper()
	clk := simclock.New()
	target := model.New(model.Llama13B())
	cfg := core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft":     model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel: "llama-13b",
	}
	edit(&cfg)
	k := core.New(clk, cfg)
	done := make(chan error, 1)
	go func() {
		clk.Go("driver", func() {
			p := k.Submit("u", body)
			done <- p.Wait()
		})
		clk.WaitQuiescent()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("LIP failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("stalled at %v", clk.Now())
	}
	clk.Shutdown()
	return k
}

func TestSessionPrefillAndGenerate(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if _, err := Generate(s, GenOptions{MaxTokens: 4}); !errors.Is(err, ErrNoDist) {
			t.Errorf("Generate before prefill: %v", err)
		}
		if _, err := s.Prefill("a short prompt"); err != nil {
			return err
		}
		res, err := Generate(s, GenOptions{MaxTokens: 10})
		if err != nil {
			return err
		}
		if len(res.Tokens) == 0 || len(res.Tokens) > 10 {
			t.Errorf("generated %d tokens", len(res.Tokens))
		}
		if kv.Len() < len(res.Tokens) {
			t.Error("KV shorter than generation")
		}
		return s.Close()
	})
}

func TestGenerateDeterministicGreedy(t *testing.T) {
	var a, b []token.ID
	gen := func(dst *[]token.ID) core.Program {
		return func(ctx *core.Ctx) error {
			kv, _ := ctx.KvAnon()
			s := NewSession(ctx, kv)
			res, err := Complete(s, "fixed prompt for determinism", 12)
			if err != nil {
				return err
			}
			*dst = res.Tokens
			return nil
		}
	}
	harness(t, gen(&a))
	harness(t, gen(&b))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token %d differs", i)
		}
	}
}

func TestSessionAccessorsAndTextHelpers(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		if got := s.String(); got == "" || !strings.Contains(got, "default") {
			t.Errorf("String() = %q", got)
		}
		if _, err := s.Prefill("short text"); err != nil {
			return err
		}
		if _, err := Generate(s, GenOptions{MaxTokens: 3}); err != nil {
			return err
		}
		// ParallelGenerate with all-empty suffixes uses the base dist.
		branches, err := ParallelGenerate(s, []string{"", ""}, GenOptions{MaxTokens: 2})
		if err != nil {
			return err
		}
		if len(branches) != 2 {
			t.Errorf("branches = %d", len(branches))
		}
		// Identical empty suffixes with greedy sampling agree.
		if a, b := branches[0].Result.Tokens, branches[1].Result.Tokens; len(a) != len(b) || a[0] != b[0] {
			t.Errorf("greedy empty-suffix branches diverged: %v %v", a, b)
		}
		return s.Close()
	})
}

func TestSamplerTemperatureZeroIsGreedy(t *testing.T) {
	m := model.New(model.Llama13B())
	d := m.Next(42)
	s := &Sampler{}
	for i := 0; i < 5; i++ {
		if s.Sample(d) != d.Greedy() {
			t.Fatal("zero-temperature sample != greedy")
		}
	}
}

func TestSamplerDeterministicPerSeed(t *testing.T) {
	m := model.New(model.Llama13B())
	draw := func(seed uint64) []token.ID {
		s := &Sampler{Temperature: 1, Seed: seed}
		var out []token.ID
		for i := 0; i < 20; i++ {
			out = append(out, s.Sample(m.Next(model.CtxHash(i))))
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different draws")
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestSamplerTopKRestricts(t *testing.T) {
	m := model.New(model.Llama13B())
	d := m.Next(1234)
	top2 := map[token.ID]bool{
		d.Candidates()[0].Token: true,
		d.Candidates()[1].Token: true,
	}
	s := &Sampler{Temperature: 2, TopK: 2, Seed: 3}
	for i := 0; i < 50; i++ {
		if tok := s.Sample(d); !top2[tok] {
			t.Fatalf("top-2 sampler emitted %d", tok)
		}
	}
}

func TestSamplerTopPRestricts(t *testing.T) {
	m := model.New(model.Llama13B())
	d := m.Next(99)
	// TopP tiny: only the head candidate qualifies.
	s := &Sampler{Temperature: 1, TopP: 1e-9, Seed: 1}
	for i := 0; i < 20; i++ {
		if tok := s.Sample(d); tok != d.Greedy() {
			t.Fatalf("tiny top-p emitted non-head token %d", tok)
		}
	}
}

func TestGenerateStreamCallback(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		s.Prefill("stream me")
		var streamed []token.ID
		res, err := Generate(s, GenOptions{
			MaxTokens: 6,
			Stream:    func(tok token.ID) { streamed = append(streamed, tok) },
		})
		if err != nil {
			return err
		}
		if len(streamed) != len(res.Tokens) {
			t.Errorf("streamed %d, returned %d", len(streamed), len(res.Tokens))
		}
		return nil
	})
}

// fixedConstraint allows a scripted sequence of tokens.
type fixedConstraint struct {
	script []token.ID
	at     int
}

func (f *fixedConstraint) Allowed() []token.ID {
	if f.at >= len(f.script) {
		return []token.ID{token.EOS}
	}
	return []token.ID{f.script[f.at]}
}
func (f *fixedConstraint) Accept(tok token.ID) error {
	f.at++
	return nil
}
func (f *fixedConstraint) Done() bool { return f.at >= len(f.script) }

func TestGenerateUnderConstraint(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		s.Prefill("constrained output:")
		script := ctx.Tokenize("yes no maybe")
		res, err := Generate(s, GenOptions{
			MaxTokens:  20,
			Constraint: &fixedConstraint{script: script},
		})
		if err != nil {
			return err
		}
		if !res.ConstraintDone {
			t.Error("constraint not done")
		}
		if got := ctx.Detokenize(res.Tokens); got != "yes no maybe" {
			t.Errorf("constrained output = %q", got)
		}
		return nil
	})
}

func TestSessionRollbackInvalidation(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		s := NewSession(ctx, kv)
		s.Prefill("some context here")
		n := kv.Len()
		if err := s.Rollback(n); err != nil {
			return err
		}
		if !s.ready {
			t.Error("rollback to current length invalidated dist")
		}
		if err := s.Rollback(1); err != nil {
			return err
		}
		if s.ready {
			t.Error("shortening rollback kept stale dist")
		}
		if _, err := Generate(s, GenOptions{MaxTokens: 2}); !errors.Is(err, ErrNoDist) {
			t.Errorf("generate after rollback: %v", err)
		}
		return nil
	})
}

func TestParallelGenerateBranches(t *testing.T) {
	harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		base := NewSession(ctx, kv)
		if _, err := base.Prefill("shared reasoning prefix"); err != nil {
			return err
		}
		branches, err := ParallelGenerate(base, []string{" idea A", " idea B", " idea C"}, GenOptions{
			MaxTokens: 8,
			Sampler:   &Sampler{Temperature: 0.8, Seed: 11},
		})
		if err != nil {
			return err
		}
		if len(branches) != 3 {
			t.Fatalf("branches = %d", len(branches))
		}
		texts := map[string]bool{}
		for _, b := range branches {
			if b.Err != nil {
				t.Errorf("branch %d: %v", b.Index, b.Err)
			}
			texts[ctx.Detokenize(b.Result.Tokens)] = true
		}
		if len(texts) < 2 {
			t.Error("branches did not diversify")
		}
		return nil
	})
}

func TestParallelBranchesBatchOnGPU(t *testing.T) {
	k := harness(t, func(ctx *core.Ctx) error {
		kv, _ := ctx.KvAnon()
		base := NewSession(ctx, kv)
		base.Prefill("prefix")
		_, err := ParallelGenerate(base, []string{" a", " b", " c", " d"}, GenOptions{MaxTokens: 10})
		return err
	})
	st := k.Stats().Sched
	if st.AvgBatch <= 1.5 {
		t.Fatalf("parallel branches did not batch: avg batch = %.2f", st.AvgBatch)
	}
}

func TestSpeculativeMatchesGreedyDecode(t *testing.T) {
	// Speculative decoding must be lossless: identical tokens to plain
	// greedy decoding, with fewer target steps. A budget that is not a
	// multiple of K must not be drafted past: both contexts end holding
	// the prompt and the answer, nothing beyond it — the target's in its
	// KV file, the draft's with its last token pending.
	for _, maxTokens := range []int{32, 30} {
		t.Run(fmt.Sprint(maxTokens), func(t *testing.T) {
			var plain, spec []token.ID
			var specRes SpecResult
			harness(t, func(ctx *core.Ctx) error {
				kv, _ := ctx.KvAnon()
				s := NewSession(ctx, kv)
				if _, err := s.Prefill("speculative decoding test prompt"); err != nil {
					return err
				}
				res, err := Generate(s, GenOptions{MaxTokens: maxTokens})
				if err != nil {
					return err
				}
				plain = res.Tokens
				return nil
			})
			var promptLen, targetLen, draftLen int
			harness(t, func(ctx *core.Ctx) error {
				tkv, _ := ctx.KvAnon()
				dkv, _ := ctx.KvAnon()
				ts := NewSession(ctx, tkv)
				ds := NewSession(ctx, dkv).WithModel("draft")
				if _, err := ts.Prefill("speculative decoding test prompt"); err != nil {
					return err
				}
				if _, err := ds.Prefill("speculative decoding test prompt"); err != nil {
					return err
				}
				promptLen = tkv.Len()
				r, err := SpeculativeGenerate(ts, ds, SpecOptions{K: 4, MaxTokens: maxTokens})
				if err != nil {
					return err
				}
				spec = r.Tokens
				specRes = r
				targetLen, draftLen = tkv.Len(), ds.Len()
				return nil
			})
			if len(spec) != len(plain) {
				t.Fatalf("lengths: spec %d, plain %d", len(spec), len(plain))
			}
			for i := range spec {
				if spec[i] != plain[i] {
					t.Fatalf("token %d: spec %d != plain %d", i, spec[i], plain[i])
				}
			}
			if want := promptLen + len(spec); targetLen != want || draftLen != want {
				t.Fatalf("target KV %d, draft context %d tokens; want prompt+answer = %d", targetLen, draftLen, want)
			}
			if specRes.TargetSteps >= len(plain) {
				t.Fatalf("speculation saved nothing: %d target steps for %d tokens", specRes.TargetSteps, len(plain))
			}
			// Expected acceptance with a 0.85-aligned draft and K=4 is ~0.68, but a
			// 32-token run is a single deterministic path with high variance; just
			// require speculation to be clearly better than chance.
			if ar := specRes.AcceptanceRate(); ar < 0.35 {
				t.Fatalf("acceptance rate = %.2f, want >= 0.35 with 0.85-aligned draft", ar)
			}
		})
	}
}
