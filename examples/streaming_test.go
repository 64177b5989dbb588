package examples

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
	"repro/internal/token"
)

// §4.2's runtime context pruning as user code: generate far past the KV
// window by periodically extracting the "attention sink" head plus the
// recent tail into a fresh file (StreamingLLM-style), keeping GPU memory
// constant while generation runs indefinitely. No prompt-serving API can
// express this: it requires editing the model's state mid-generation.
func Example_streaming() {
	const (
		window   = 96 // KV budget in tokens
		keepHead = 4  // attention sinks
		generate = 400
	)
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		p := k.Submit("stream", func(ctx *core.Ctx) error {
			s, err := anon(ctx, "An endless stream of consciousness begins: ")
			if err != nil {
				return err
			}
			// StreamingGenerate swaps the session onto fresh files as it
			// runs, so clean up whichever file it holds at the end.
			defer func() { s.Close() }()
			peak := 0
			res, err := lip.StreamingGenerate(s, lip.GenOptions{
				MaxTokens: generate,
				Sampler:   &lip.Sampler{Temperature: 0.9, Seed: 4},
				// An endless stream never wants to stop: suppress EOS via
				// the policy-transform hook (§2.3 in one line).
				Transform: lip.SuppressEOS,
				Stream: func(token.ID) {
					peak = max(peak, s.Len())
				},
			}, window, keepHead)
			if err != nil {
				return err
			}
			ctx.Emit(fmt.Sprintf("generated %d tokens; KV peaked at %d of a %d-token window (buffer now %d)\n",
				len(res.Tokens), peak, window, s.Len()))
			text := ctx.Detokenize(res.Tokens)
			ctx.Emit(fmt.Sprintf("last 80 chars: …%s\n", text[len(text)-80:]))
			return nil
		})
		if err := p.Wait(); err != nil {
			return err
		}
		fmt.Fprint(out, p.Output())
		st := k.Stats()
		fmt.Fprintf(out, "GPU pages in use at exit: %d; peak pages: %d (vs %d tokens generated)\n",
			st.FS.GPUPages, st.FS.GPUPeakPages, generate)
		return nil
	})
	// Output:
	// generated 400 tokens; KV peaked at 96 of a 96-token window (buffer now 61)
	// last 80 chars: …e mura fechu mamo keve base mitu thuzeke romapo thegura baku tekire pofu revago
	// GPU pages in use at exit: 0; peak pages: 10 (vs 400 tokens generated)
}
