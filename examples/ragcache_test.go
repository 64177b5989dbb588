package examples

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// A miniature of the paper's §5 evaluation scenario: a
// retrieval-augmented-generation service whose *application* decides what
// to cache. The LIP pins the KV cache of a popular document in a named
// file; later requests for the same topic fork it instead of re-prefilling
// 3,000 tokens. A cold, a warm and an uncached request show where the
// paper's up-to-7× figure comes from.
func Example_ragcache() {
	corpus := workload.NewCorpus(2, 3000) // topic 0 is popular, topic 1 is not
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		// ask runs one request as a LIP: popular topics go through the
		// named cache file, others through a discarded scratch file. It
		// returns the time to first generated token (where cache reuse
		// shows) and the total request time (which decode dominates); the
		// first request to fail leaves its error in failed.
		var failed error
		ask := func(topic int, question string, popular bool) (ttft, total time.Duration) {
			start := clk.Now()
			p := k.Submit("rag", func(ctx *core.Ctx) error {
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
					var err error
					if s, err = anon(ctx, corpus.Doc(topic)+question); err != nil {
						return err
					}
					defer s.Close()
				}
				ttft = ctx.Clock().Now() - start // prefill done: next token is ready
				res, err := lip.Generate(s, lip.GenOptions{MaxTokens: 32})
				if err != nil {
					return err
				}
				ctx.EmitTokens(res.Tokens)
				return nil
			})
			if err := p.Wait(); err != nil && failed == nil {
				failed = err
			}
			return ttft, clk.Now() - start
		}

		coldT, cold := ask(0, workload.Question(0, 1), true)
		warmT, warm := ask(0, workload.Question(0, 2), true)
		_, warm2 := ask(0, workload.Question(0, 3), true)
		unT, uncached := ask(1, workload.Question(1, 1), false)
		if failed != nil {
			return failed
		}
		fmt.Fprintf(out, "cold     (build + answer):  ttft %8v   total %v\n", coldT, cold)
		fmt.Fprintf(out, "warm     (fork + answer):   ttft %8v   total %v\n", warmT, warm)
		fmt.Fprintf(out, "warm     (again):           %19s total %v\n", "", warm2)
		fmt.Fprintf(out, "uncached (full prefill):    ttft %8v   total %v\n", unT, uncached)
		fmt.Fprintf(out, "\nwarm vs uncached: %.1fx faster to first token, %.1fx end-to-end\n",
			float64(unT)/float64(warmT), float64(uncached)/float64(warm))
		st := k.Stats()
		fmt.Fprintf(out, "forks: %d, GPU pages held by the pinned doc: %d\n", st.FS.Forks, st.FS.GPUPages)
		return nil
	})
	// Output:
	// cold     (build + answer):  ttft   1.407s   total 2.04498s
	// warm     (fork + answer):   ttft  25.62ms   total 663.6ms
	// warm     (again):                               total 663.6ms
	// uncached (full prefill):    ttft  1.3867s   total 2.02468s
	//
	// warm vs uncached: 54.1x faster to first token, 3.1x end-to-end
	// forks: 3, GPU pages held by the pinned doc: 196
}
