// Ragcache is a miniature of the paper's §5 evaluation scenario: a
// retrieval-augmented-generation service whose *application* decides what
// to cache. The LIP pins the KV cache of a popular document in a named
// file; later requests for the same topic fork it instead of re-prefilling
// 3,000 tokens. The run prints the latency of a cold request, a warm
// request, and an uncached request, showing where the paper's up-to-7×
// figure comes from.
//
// Run with: go run ./examples/ragcache
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
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
	corpus := workload.NewCorpus(2, 3000) // topic 0 is popular, topic 1 is not

	// ask runs one request as a LIP: popular topics go through the named
	// cache file, others through a discarded scratch file. It returns the
	// time to first generated token (where cache reuse shows) and the
	// total request time (which decode dominates).
	ask := func(topic int, question string, popular bool) (ttft, total time.Duration) {
		start := clk.Now()
		p := kernel.Submit("rag", func(ctx *core.Ctx) error {
			var s *lip.Session
			if popular {
				path := fmt.Sprintf("docs/%d.kv", topic)
				f, err := ctx.KvOpen(path, true)
				if errors.Is(err, kvfs.ErrNotExist) {
					f, err = ctx.KvCreate(path, kvfs.ModeShared)
				}
				if err != nil {
					return err
				}
				if err := ctx.KvLock(f); err != nil {
					return err
				}
				if f.Len() == 0 { // first request builds the prefix
					if _, err := lip.NewSession(ctx, f).Prefill(corpus.Doc(topic)); err != nil {
						ctx.KvUnlock(f)
						return err
					}
				}
				ctx.KvUnlock(f)
				fork, err := ctx.KvFork(f)
				if err != nil {
					return err
				}
				defer fork.Remove()
				s = lip.NewSession(ctx, fork)
				if _, err := s.Prefill(question); err != nil {
					return err
				}
			} else {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				s = lip.NewSession(ctx, f)
				if _, err := s.Prefill(corpus.Doc(topic) + question); err != nil {
					return err
				}
			}
			ttft = ctx.Clock().Now() - start // prefill done: next token is ready
			res, err := lip.Generate(s, lip.GenOptions{MaxTokens: 32})
			if err != nil {
				return err
			}
			ctx.EmitTokens(res.Tokens)
			return nil
		})
		if err := p.Wait(); err != nil {
			log.Fatalf("request failed: %v", err)
		}
		return ttft, clk.Now() - start
	}

	clk.Go("client", func() {
		coldT, cold := ask(0, workload.Question(0, 1), true)
		warmT, warm := ask(0, workload.Question(0, 2), true)
		_, warm2 := ask(0, workload.Question(0, 3), true)
		unT, uncached := ask(1, workload.Question(1, 1), false)
		fmt.Printf("cold     (build + answer):  ttft %8v   total %v\n", coldT, cold)
		fmt.Printf("warm     (fork + answer):   ttft %8v   total %v\n", warmT, warm)
		fmt.Printf("warm     (again):           %19s total %v\n", "", warm2)
		fmt.Printf("uncached (full prefill):    ttft %8v   total %v\n", unT, uncached)
		fmt.Printf("\nwarm vs uncached: %.1fx faster to first token, %.1fx end-to-end\n",
			float64(unT)/float64(warmT), float64(uncached)/float64(warm))
		st := kernel.Stats()
		fmt.Printf("forks: %d, GPU pages held by the pinned doc: %d\n",
			st.FS.Forks, st.FS.GPUPages)
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
