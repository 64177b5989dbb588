// Got sketches a Graph-of-Thoughts step (§2.1 cites graph generation
// strategies as a reuse pattern no fixed serving abstraction covers):
// two hypothesis branches are generated in parallel from a shared prefix,
// then *aggregated* by merging their KV files — reusing both branches'
// cached state to condition a synthesis step, without recomputing either.
// The merged context is approximate (kvfs marks it), exactly like real
// cross-context KV reuse.
//
// Run with: go run ./examples/got
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
		p := kernel.Submit("got", func(ctx *core.Ctx) error {
			root, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer root.Remove()
			base := lip.NewSession(ctx, root)
			if _, err := base.Prefill("Problem: schedule n jobs on m machines. "); err != nil {
				return err
			}

			// Expand: two branches in parallel threads (forked KV).
			branches, err := lip.ParallelGenerate(base,
				[]string{"Greedy idea:", "DP idea:"},
				lip.GenOptions{MaxTokens: 20, Sampler: &lip.Sampler{Temperature: 0.8, Seed: 2}})
			if err != nil {
				return err
			}
			for _, b := range branches {
				if b.Err != nil {
					return b.Err
				}
				ctx.Emit(fmt.Sprintf("branch %d: %s\n", b.Index, ctx.Detokenize(b.Result.Tokens)))
			}

			// ParallelGenerate closed the branch files; rebuild the two
			// thought contexts for aggregation. (A production LIP would
			// keep the sessions open; this spells out the file surgery.)
			thoughts := make([]*struct{ s *lip.Session }, 2)
			for i, hint := range []string{"Greedy idea:", "DP idea:"} {
				fk, err := ctx.KvFork(root)
				if err != nil {
					return err
				}
				s := lip.NewSession(ctx, fk)
				if _, err := s.Prefill(hint); err != nil {
					return err
				}
				if _, err := s.PrefillTokens(branches[i].Result.Tokens); err != nil {
					return err
				}
				thoughts[i] = &struct{ s *lip.Session }{s}
			}

			// Aggregate: merge both branch contexts into one KV file and
			// synthesize from the union — the "graph join" no prompt API
			// expresses without re-prefilling both branches.
			merged, err := ctx.KvMerge(thoughts[0].s.KV(), thoughts[1].s.KV())
			if err != nil {
				return err
			}
			defer merged.Remove()
			thoughts[0].s.Close()
			thoughts[1].s.Close()
			ctx.Emit(fmt.Sprintf("merged context: %d tokens, approximate=%v\n", merged.Len(), merged.Approx()))

			synth := lip.NewSession(ctx, merged)
			if _, err := synth.Prefill(" Combine both ideas:"); err != nil {
				return err
			}
			res, err := lip.Generate(synth, lip.GenOptions{MaxTokens: 24})
			if err != nil {
				return err
			}
			ctx.Emit("synthesis: " + ctx.Detokenize(res.Tokens) + "\n")
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Print(p.Output())
		st := kernel.Stats()
		fmt.Printf("\npred tokens: %d (merge itself cost zero model computation)\n", st.PredTokens)
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
