// Streaming demonstrates §4.2's runtime context pruning as user code:
// generate far past the KV window by periodically extracting the
// "attention sink" head plus the recent tail into a fresh file
// (StreamingLLM-style), keeping GPU memory constant while generation runs
// indefinitely. No prompt-serving API can express this: it requires
// editing the model's state mid-generation.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

func main() {
	clk := simclock.New()
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})

	const (
		window   = 96 // KV budget in tokens
		keepHead = 4  // attention sinks
		generate = 400
	)

	clk.Go("client", func() {
		p := kernel.Submit("stream", func(ctx *core.Ctx) error {
			kv, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			s := lip.NewSession(ctx, kv)
			// PruneContext swaps the session onto fresh files as it runs,
			// so clean up through the session, not the original handle.
			defer func() { s.Close() }()
			if _, err := s.Prefill("An endless stream of consciousness begins: "); err != nil {
				return err
			}
			peak := 0
			res, err := lip.StreamingGenerate(s, lip.GenOptions{
				MaxTokens: generate,
				Sampler:   &lip.Sampler{Temperature: 0.9, Seed: 4},
				// An endless stream never wants to stop: suppress EOS via
				// the policy-transform hook (§2.3 in one line).
				Transform: lip.SuppressEOS,
				Stream: func(token.ID) {
					if l := s.KV().Len(); l > peak {
						peak = l
					}
				},
			}, window, keepHead)
			if err != nil {
				return err
			}
			ctx.Emit(fmt.Sprintf("generated %d tokens; KV peaked at %d of a %d-token window (buffer now %d)\n",
				len(res.Tokens), peak, window, s.KV().Len()))
			text := ctx.Detokenize(res.Tokens)
			ctx.Emit(fmt.Sprintf("last 80 chars: …%s\n", text[len(text)-80:]))
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Print(p.Output())
		st := kernel.Stats()
		fmt.Printf("GPU pages in use at exit: %d; peak pages: %d (vs %d tokens generated)\n",
			st.FS.GPUPages, st.FS.GPUPeakPages, generate)
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
