package examples

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// §4.3's cooperative multi-agent pattern with kernel IPC instead of
// client-mediated function calls: a coordinator LIP fans a task out to
// worker LIPs, each worker generates its piece against its own KV context,
// and results flow back as messages — zero network round trips, with the
// batch scheduler coalescing the workers' pred calls into shared GPU
// steps.
func Example_multiagent() {
	sections := []string{"introduction", "design", "evaluation", "conclusion"}
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		coordinator := k.Submit("team", func(ctx *core.Ctx) error {
			// Spawn one worker process per section; tell each who to
			// report to.
			for i, sec := range sections {
				w := k.Submit("team", func(wc *core.Ctx) error {
					// Learn the coordinator's PID from the first message.
					boss, err := wc.Recv()
					if err != nil {
						return err
					}
					s, err := anon(wc, "Draft the "+sec+" section: ")
					if err != nil {
						return err
					}
					defer s.Close()
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
			for len(parts) < len(sections) {
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
			return err
		}
		fmt.Fprintln(out, coordinator.Output())
		st := k.Stats()
		fmt.Fprintf(out, "\n%d IPC messages, avg GPU batch %.1f calls, total virtual time %v\n",
			st.IPCMessages, st.Sched.AvgBatch, clk.Now())
		return nil
	})
	// Output:
	// [from pid 2] introduction: piri pala nonutu nebute pibi dopomu thilora keri faba chete nufori fezi fude chiro viva vuma
	// [from pid 3] design: duvofo zapeno zasutha nakitu dobaba mape feda gakozi ropope nosama baze chadi turena negito napene choche
	// [from pid 4] evaluation: vafe gigale retobu gemimo fupo rofugi pisa rezesi fobi zukubo vesi piku gagatha keda pota nefupu
	// [from pid 5] conclusion: gedoke vupu thazeve sugu rubudu soza fora ribato muthi zitechu chame sive madu lipive dabobu vose
	//
	// 8 IPC messages, avg GPU batch 4.0 calls, total virtual time 388.4ms
}
