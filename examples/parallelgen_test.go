package examples

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// Figure 2 of the paper, line for line in spirit: parallel token
// generation over a shared prefix KV cache.
//
//	prefix_kv = kv_open("sys_msg.kv")        -> KvOpen
//	kv = kv_fork(prefix_kv)                  -> KvFork
//	pthread_create(... pred/sample loop ...) -> Spawn + Pred + Sampler
//	join_all_threads()                       -> Thread.Join
//
// An admin program first builds the shared, world-readable system-message
// file; a user program then answers n queries in parallel threads, each
// forking the prefix copy-on-write. The n branches cost one prefix
// prefill, not n.
func Example_parallelgen() {
	const sysMsg = "You are a careful assistant. Answer briefly and cite the document. "
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		// Admin builds the shared prefix once: readable by all programs,
		// writable only by its owner (paper §4.2's access-control example).
		admin := k.Submit(kvfs.Admin, func(ctx *core.Ctx) error {
			f, err := ctx.KvCreate("sys_msg.kv", kvfs.ModeShared)
			if err != nil {
				return err
			}
			_, err = lip.NewSession(ctx, f).Prefill(sysMsg)
			return err
		})
		if err := admin.Wait(); err != nil {
			return err
		}

		queries := []string{
			"query 1: what is the cache policy?",
			"query 2: how are threads scheduled?",
			"query 3: who owns the KV file?",
		}
		user := k.Submit("bob", func(ctx *core.Ctx) error {
			prefix, err := ctx.KvOpen("sys_msg.kv", false)
			if err != nil {
				return err
			}
			threads := make([]*core.Thread, len(queries))
			outputs := make([]string, len(queries))
			for i, q := range queries {
				kv, err := ctx.KvFork(prefix) // fork prefix kv ...
				if err != nil {
					return err
				}
				threads[i], err = ctx.Spawn(func(tc *core.Ctx) error { // ... and thread
					defer kv.Remove()
					s := lip.NewSession(tc, kv)
					if _, err := s.Prefill(q); err != nil {
						return err
					}
					// generate until eos token (or the budget).
					res, err := lip.Generate(s, lip.GenOptions{
						MaxTokens: 24,
						Sampler:   &lip.Sampler{Temperature: 0.8, Seed: uint64(i)},
					})
					if err != nil {
						return err
					}
					outputs[i] = tc.Detokenize(res.Tokens)
					return nil
				})
				if err != nil {
					return err
				}
			}
			for _, th := range threads { // join_all_threads()
				if err := th.Join(); err != nil {
					return err
				}
			}
			for i, o := range outputs {
				ctx.Emit(fmt.Sprintf("branch %d -> %q\n", i, o))
			}
			return nil
		})
		if err := user.Wait(); err != nil {
			return err
		}
		fmt.Fprint(out, user.Output())

		st := k.Stats()
		fmt.Fprintf(out, "\nshared prefix: %d tokens, prefilled once; total pred tokens: %d\n",
			len(k.Tokenizer().Encode(sysMsg)), st.PredTokens)
		fmt.Fprintf(out, "pages on GPU now: %d (forked branches freed theirs)\n", st.FS.GPUPages)
		return nil
	})
	// Output:
	// branch 0 -> "chibu detofo livofi nevasu chothi buno zuthatho thefezi vuko fulu thakefe ruvacho dirodo gunofo rilafe siru fumi viche fole ketho chutha netugo fubi tekeso "
	// branch 1 -> "lisusa maka sota pili fonu bachu mivo lavatu kechi pecho dolube tutezi ladivo tenuli chuga suda bozo thubaru tiragu soku kathu pomo kedu zemothu "
	// branch 2 -> "dadefi ronefo nafatho nikila rudiva lapiche sofa mebo thiseche thukadu vudo zageru mogi fofu "
	//
	// shared prefix: 24 tokens, prefilled once; total pred tokens: 129
	// pages on GPU now: 2 (forked branches freed theirs)
}
