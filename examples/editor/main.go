// Editor is the paper's opening example (§2): an LLM code editor giving
// live completions on every keystroke. The buffer lives in one KV file
// for the whole session; typing appends tokens, deletions roll back with
// Truncate, and each completion runs on a throwaway copy-on-write fork —
// so a keystroke costs a handful of tokens of model compute instead of a
// full re-prefill of the buffer.
//
// Run with: go run ./examples/editor
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func main() {
	clk := simclock.New()
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})
	trace := workload.EditorTrace(12, 3)

	clk.Go("client", func() {
		p := kernel.Submit("editor", func(ctx *core.Ctx) error {
			buf, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer buf.Remove()
			session := lip.NewSession(ctx, buf)
			if _, err := session.Prefill("package main // the file being edited "); err != nil {
				return err
			}
			for i, ks := range trace {
				start := ctx.Clock().Now()
				deleted := false
				switch {
				case ks.Delete > 0:
					keep := buf.Len() - ks.Delete
					if keep < 1 {
						keep = 1
					}
					if err := session.Rollback(keep); err != nil {
						return err
					}
					// Re-prime the next-token distribution with a cursor
					// marker; it is truncated away with the completion.
					if _, err := session.Prefill("⎀"); err != nil {
						return err
					}
					deleted = true
				default:
					if _, err := session.Prefill(ks.Append); err != nil {
						return err
					}
				}
				// Decode the completion directly on the buffer, then roll
				// it back — zero-cost KV surgery via Truncate (§4.2).
				genStart := buf.Len()
				res, err := lip.Generate(session, lip.GenOptions{MaxTokens: 6})
				if err != nil {
					return err
				}
				keep := genStart
				if deleted {
					keep-- // drop the marker too
				}
				if err := session.Rollback(keep); err != nil {
					return err
				}
				ev := ks.Append
				if ks.Delete > 0 {
					ev = fmt.Sprintf("<del %d>", ks.Delete)
				}
				ctx.Emit(fmt.Sprintf("keystroke %2d %-10q -> completion %-30q (%v)\n",
					i, ev, ctx.Detokenize(res.Tokens), ctx.Clock().Now()-start))
			}
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("editor LIP: %v", err)
		}
		fmt.Print(p.Output())
		st := kernel.Stats()
		fmt.Printf("\n%d pred tokens total for %d keystrokes over a %d-token buffer\n",
			st.PredTokens, len(trace), 12)
		fmt.Printf("virtual session time: %v\n", clk.Now().Round(time.Millisecond))
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
