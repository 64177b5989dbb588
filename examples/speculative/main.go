// Speculative implements §4.1's example of a decoding technique written
// entirely against the pred system call: the LIP drafts K tokens with a
// cheap model, verifies them with a single multi-token pred against the
// target model by inspecting the returned distributions, and repairs the
// KV file with Truncate on rejection. It prints the speedup over plain
// decoding.
//
// Run with: go run ./examples/speculative
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
)

func main() {
	clk := simclock.New()
	target := model.New(model.Llama13B())
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel: "llama-13b",
	})
	const prompt = "Speculative decoding drafts cheap tokens and verifies them in one pass. "
	const genTokens = 96

	run := func(k int) (time.Duration, lip.SpecResult) {
		start := clk.Now()
		var result lip.SpecResult
		p := kernel.Submit("spec", func(ctx *core.Ctx) error {
			tkv, _ := ctx.KvAnon()
			defer tkv.Remove()
			ts := lip.NewSession(ctx, tkv)
			if _, err := ts.Prefill(prompt); err != nil {
				return err
			}
			if k == 0 { // plain greedy decoding for reference
				res, err := lip.Generate(ts, lip.GenOptions{MaxTokens: genTokens})
				result.Tokens = res.Tokens
				return err
			}
			dkv, _ := ctx.KvAnon()
			defer dkv.Remove()
			ds := lip.NewSession(ctx, dkv).WithModel("draft-1b")
			if _, err := ds.Prefill(prompt); err != nil {
				return err
			}
			r, err := lip.SpeculativeGenerate(ts, ds, lip.SpecOptions{K: k, MaxTokens: genTokens})
			result = r
			return err
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("K=%d: %v", k, err)
		}
		return clk.Now() - start, result
	}

	clk.Go("client", func() {
		plainTime, plain := run(0)
		fmt.Printf("plain decode: %d tokens in %v\n", len(plain.Tokens), plainTime)
		for _, k := range []int{2, 4, 8} {
			d, r := run(k)
			match := len(r.Tokens) == len(plain.Tokens)
			for i := range r.Tokens {
				if i < len(plain.Tokens) && r.Tokens[i] != plain.Tokens[i] {
					match = false
				}
			}
			fmt.Printf("K=%d: %v (%.2fx), acceptance %.0f%%, target steps %d, lossless=%v\n",
				k, d, float64(plainTime)/float64(d), 100*r.AcceptanceRate(), r.TargetSteps, match)
		}
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
