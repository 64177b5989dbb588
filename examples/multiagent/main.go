// Multiagent implements §4.3's cooperative multi-agent pattern with
// kernel IPC instead of client-mediated function calls: a coordinator LIP
// fans a task out to worker LIPs, each worker generates its piece against
// its own KV context, and results flow back as messages — zero network
// round trips, with the batch scheduler coalescing the workers' pred
// calls into shared GPU steps.
//
// Run with: go run ./examples/multiagent
package main

import (
	"fmt"
	"log"
	"strings"

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

	const workers = 4
	sections := []string{"introduction", "design", "evaluation", "conclusion"}

	clk.Go("client", func() {
		coordinator := kernel.Submit("team", func(ctx *core.Ctx) error {
			// Spawn one worker process per section; tell each who to
			// report to.
			for i, sec := range sections {
				i, sec := i, sec
				w := kernel.Submit("team", func(wc *core.Ctx) error {
					// Learn the coordinator's PID from the first message.
					boss, err := wc.Recv()
					if err != nil {
						return err
					}
					kv, err := wc.KvAnon()
					if err != nil {
						return err
					}
					defer kv.Remove()
					s := lip.NewSession(wc, kv)
					if _, err := s.Prefill("Draft the " + sec + " section: "); err != nil {
						return err
					}
					res, err := lip.Generate(s, lip.GenOptions{
						MaxTokens: 16,
						Sampler:   &lip.Sampler{Temperature: 0.7, Seed: uint64(i)},
					})
					if err != nil {
						return err
					}
					return wc.Send(boss.From, sec+": "+wc.Detokenize(res.Tokens))
				})
				if err := ctx.Send(w.PID(), "report to me"); err != nil {
					return err
				}
			}
			// Gather in completion order.
			var parts []string
			for len(parts) < workers {
				msg, err := ctx.Recv()
				if err != nil {
					return err
				}
				parts = append(parts, fmt.Sprintf("[from pid %d] %s", msg.From, msg.Payload))
			}
			ctx.Emit(strings.Join(parts, "\n"))
			return nil
		})
		if err := coordinator.Wait(); err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		fmt.Println(coordinator.Output())
		st := kernel.Stats()
		fmt.Printf("\n%d IPC messages, avg GPU batch %.1f calls, total virtual time %v\n",
			st.IPCMessages, st.Sched.AvgBatch, clk.Now())
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
