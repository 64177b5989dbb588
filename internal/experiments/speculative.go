package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

// SpeculativeConfig parameterizes E4 (§4.1): speculative decoding written
// as a LIP against the raw pred syscall — the paper's example of a
// decoding technique that needs no server support once the generation
// loop belongs to the program.
type SpeculativeConfig struct {
	Ks        []int // draft lengths to sweep; 0 means plain decoding
	GenTokens int
	Agreement float64 // draft/target greedy agreement probability
}

// DefaultSpeculative returns the E4 configuration.
func DefaultSpeculative() SpeculativeConfig {
	return SpeculativeConfig{
		Ks:        []int{0, 2, 4, 8},
		GenTokens: 96,
		Agreement: 0.85,
	}
}

// SpeculativePoint is one measurement.
type SpeculativePoint struct {
	K           int
	Time        time.Duration
	TokPerSec   float64
	Acceptance  float64
	TargetSteps int
	Speedup     float64 // vs K=0
}

// RunSpeculative sweeps draft length K, including the K=0 plain-decoding
// baseline, and reports decode throughput and acceptance.
func RunSpeculative(cfg SpeculativeConfig) []SpeculativePoint {
	var out []SpeculativePoint
	for _, k := range cfg.Ks {
		out = append(out, runSpeculativeCell(cfg, k))
	}
	normalize(out, func(_, q *SpeculativePoint) bool { return q.K == 0 },
		func(p, base *SpeculativePoint) { p.Speedup = ratio(base.Time, p.Time) })
	return out
}

func runSpeculativeCell(cfg SpeculativeConfig, k int) SpeculativePoint {
	clk := simclock.New()
	kern := newKernel(clk, func(kc *core.Config) {
		kc.Models["draft"] = model.New(model.AlignedDraft(kc.Models["llama-13b"], cfg.Agreement))
		kc.DefaultModel = "llama-13b"
		kc.Tokenizer = token.NewTokenizer(token.NewVocab())
	})
	pt := SpeculativePoint{K: k}
	prompt := "speculative decoding benchmark prompt with some context"
	drive(clk, func() {
		start := clk.Now()
		p := kern.Submit("spec", func(ctx *core.Ctx) error {
			tf, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer tf.Remove()
			ts := lip.NewSession(ctx, tf)
			if _, err := ts.Prefill(prompt); err != nil {
				return err
			}
			if k == 0 {
				res, err := lip.Generate(ts, lip.GenOptions{MaxTokens: cfg.GenTokens})
				if err != nil {
					return err
				}
				ctx.EmitTokens(res.Tokens)
				pt.TargetSteps = len(res.Tokens)
				return nil
			}
			df, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer df.Remove()
			ds := lip.NewSession(ctx, df).WithModel("draft")
			if _, err := ds.Prefill(prompt); err != nil {
				return err
			}
			res, err := lip.SpeculativeGenerate(ts, ds, lip.SpecOptions{
				DraftModel: "draft", K: k, MaxTokens: cfg.GenTokens,
			})
			if err != nil {
				return err
			}
			ctx.EmitTokens(res.Tokens)
			pt.Acceptance = res.AcceptanceRate()
			pt.TargetSteps = res.TargetSteps
			return nil
		})
		if err := p.Wait(); err != nil {
			panic(fmt.Sprintf("speculative LIP failed: %v", err))
		}
		pt.Time = clk.Now() - start
	})
	pt.TokPerSec = perSecond(cfg.GenTokens, pt.Time)
	return pt
}

// SpeculativeTable renders E4.
func SpeculativeTable(points []SpeculativePoint) metrics.Table {
	t := metrics.Table{
		Title:   "E4 (§4.1): speculative decoding as a LIP (target llama-13b, draft 1B)",
		Headers: []string{"K", "decode-time", "tok/s", "acceptance", "target-steps", "speedup"},
	}
	for _, p := range points {
		t.AddRow(p.K, p.Time, p.TokPerSec, p.Acceptance, p.TargetSteps, p.Speedup)
	}
	return t
}
