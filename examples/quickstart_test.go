package examples

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// The smallest complete LLM Inference Program: one LIP owns its entire
// generation loop — create a KV file, prefill a prompt with the pred
// system call, sample tokens, emit text — and the client prints the result
// with the virtual time the generation cost.
func Example_quickstart() {
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		p := k.Submit("alice", func(ctx *core.Ctx) error {
			s, err := anon(ctx, "Symphony serves programs, not prompts.")
			if err != nil {
				return err
			}
			defer s.Close()
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
			return err
		}
		fmt.Fprintf(out, "output (%d chars): %q\n", len(p.Output()), p.Output())
		fmt.Fprintf(out, "virtual generation time: %v\n", clk.Now())
		fmt.Fprintf(out, "kernel stats: %d pred calls, %d tokens\n",
			k.Stats().PredCalls, k.Stats().PredTokens)
		return nil
	})
	// Output:
	// output (116 chars): "page sefu chufo soki tamathe fonu pada zafuzo bibi soza thopoza vade beze mepi sudi fufu nuzifi debile guthuso pone "
	// virtual generation time: 434.98ms
	// kernel stats: 2 pred calls, 31 tokens
}
