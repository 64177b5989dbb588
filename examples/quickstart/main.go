// Quickstart: the smallest complete LLM Inference Program.
//
// It assembles a Symphony kernel on a virtual clock, submits one LIP that
// owns its entire generation loop — create a KV file, prefill a prompt
// with the pred system call, sample tokens, emit text — and prints the
// result along with the virtual time the generation cost.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
)

func main() {
	clk := simclock.New()
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})

	clk.Go("client", func() {
		p := kernel.Submit("alice", func(ctx *core.Ctx) error {
			kv, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer kv.Remove()

			s := lip.NewSession(ctx, kv)
			if _, err := s.Prefill("Symphony serves programs, not prompts."); err != nil {
				return err
			}
			res, err := lip.Generate(s, lip.GenOptions{
				MaxTokens: 48,
				Sampler:   &lip.Sampler{Temperature: 0.7, TopP: 0.95, Seed: 42},
			})
			if err != nil {
				return err
			}
			ctx.EmitTokens(res.Tokens)
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Printf("output (%d chars): %q\n", len(p.Output()), p.Output())
		fmt.Printf("virtual generation time: %v\n", clk.Now())
		fmt.Printf("kernel stats: %d pred calls, %d tokens\n",
			kernel.Stats().PredCalls, kernel.Stats().PredTokens)
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
