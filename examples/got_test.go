package examples

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// A Graph-of-Thoughts step (§2.1 cites graph generation strategies as a
// reuse pattern no fixed serving abstraction covers): two hypothesis
// branches are generated in parallel from a shared prefix, then
// *aggregated* by merging their KV files — reusing both branches' cached
// state to condition a synthesis step, without recomputing either. The
// merged context is approximate (kvfs marks it), exactly like real
// cross-context KV reuse.
func Example_got() {
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		p := k.Submit("got", func(ctx *core.Ctx) error {
			base, err := anon(ctx, "Problem: schedule n jobs on m machines. ")
			if err != nil {
				return err
			}
			defer base.Close()

			// Expand: two branches in parallel threads (forked KV).
			hints := []string{"Greedy idea:", "DP idea:"}
			branches, err := lip.ParallelGenerate(base, hints,
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
			thoughts := make([]*lip.Session, len(hints))
			for i, hint := range hints {
				if thoughts[i], err = base.Fork(); err != nil {
					return err
				}
				if _, err := thoughts[i].Prefill(hint); err != nil {
					return err
				}
				if _, err := thoughts[i].PrefillTokens(branches[i].Result.Tokens); err != nil {
					return err
				}
			}

			// Aggregate: merge both branch contexts into one KV file and
			// synthesize from the union — the "graph join" no prompt API
			// expresses without re-prefilling both branches.
			a, err := thoughts[0].File()
			if err != nil {
				return err
			}
			b, err := thoughts[1].File()
			if err != nil {
				return err
			}
			merged, err := ctx.KvMerge(a, b)
			if err != nil {
				return err
			}
			defer merged.Remove()
			thoughts[0].Close()
			thoughts[1].Close()
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
			return err
		}
		fmt.Fprint(out, p.Output())
		fmt.Fprintf(out, "\npred tokens: %d (merge itself cost zero model computation)\n", k.Stats().PredTokens)
		return nil
	})
	// Output:
	// branch 0: kegu daluzo ratumu tinoge chabi sife pule bigi chuso radavu giloki dazedu fosu chelu nodusa nabapa gufobe lothafa ravila lelonu
	// branch 1: bucha fepu Problembava choru tithodu petu mimu
	// merged context: 68 tokens, approximate=true
	// synthesis: taropa dagani zevutu chipe genaku biko lubaro thegeve faso lodise kake kano fipe filo thethumi dikavi bede zotafo chemo rachoba muso thazachu thadaze doledo
	//
	// pred tokens: 117 (merge itself cost zero model computation)
}
