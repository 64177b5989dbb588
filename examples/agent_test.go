package examples

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
)

// §2.2's fix for function-calling round trips: the whole agent loop —
// generate, call a tool, fold the result back into the KV context — runs
// inside one LIP, with tools executing server-side. A second cooperative
// agent receives progress reports over kernel IPC (§4.3's multi-agent
// communication).
func Example_agent() {
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		// Server-side tools: a weather API and a calculator, each with real
		// external latency that the kernel overlaps with KV offload.
		k.RegisterTool("weather", core.Tool{
			Latency: 120 * time.Millisecond,
			Fn:      func(args string) (string, error) { return fmt.Sprintf("weather(%s) = sunny, 21C", args), nil },
		})
		k.RegisterTool("calc", core.Tool{
			Latency: 60 * time.Millisecond,
			Fn:      func(args string) (string, error) { return fmt.Sprintf("calc(%s) = 42", args), nil },
		})

		// The logger agent waits for progress messages from the worker.
		logger := k.Submit("ops", func(ctx *core.Ctx) error {
			for {
				msg, err := ctx.Recv()
				if err != nil {
					return err
				}
				ctx.Emit(fmt.Sprintf("[pid %d] %s\n", msg.From, msg.Payload))
				if strings.HasSuffix(msg.Payload, "done") {
					return nil
				}
			}
		})

		worker := k.Submit("agent", func(ctx *core.Ctx) error {
			s, err := anon(ctx, "Plan a picnic. Check the weather, then compute the budget. ")
			if err != nil {
				return err
			}
			defer s.Close()
			for step, tool := range []string{"weather", "calc"} {
				// Think: generate a short reasoning step.
				res, err := lip.Generate(s, lip.GenOptions{MaxTokens: 16})
				if err != nil {
					return err
				}
				// Act: call the tool server-side — no client round trip.
				obs, err := ctx.Call(tool, "paris")
				if err != nil {
					return err
				}
				// Observe: fold the result into the KV context.
				if _, err := s.Prefill(" " + obs + " "); err != nil {
					return err
				}
				ctx.Send(logger.PID(), fmt.Sprintf("step %d used %s after %q", step, tool, ctx.Detokenize(res.Tokens)))
			}
			final, err := lip.Generate(s, lip.GenOptions{MaxTokens: 24})
			if err != nil {
				return err
			}
			ctx.Emit("final answer: " + ctx.Detokenize(final.Tokens) + "\n")
			return ctx.Send(logger.PID(), "done")
		})

		if err := worker.Wait(); err != nil {
			return err
		}
		if err := logger.Wait(); err != nil {
			return err
		}
		fmt.Fprint(out, logger.Output())
		fmt.Fprint(out, worker.Output())
		st := k.Stats()
		fmt.Fprintf(out, "\ntool calls: %d, IPC messages: %d, KV restore time: %v, total virtual time: %v\n",
			st.ToolCalls, st.IPCMessages, st.RestoreTime, clk.Now())
		return nil
	})
	// Output:
	// [pid 2] step 0 used weather after "gakabi thetude mete koda buthu kuso nebachi ralochi cheza tivuva namabu piva lilire kani tukapi nevicha "
	// [pid 2] step 1 used calc after "nuluche zibila gavesu futo gegofu nokipi puri kege bomu chafa lanova neloga tubafo delisu kuli paku "
	// [pid 2] done
	// final answer: kubu vibi puni sepu chivo revafe dirigi zemire vumo zedopa zikino fonu tichopu nubecha chapu navino chonu fothe techide gomese gumoche rifiko giduku nadoso
	//
	// tool calls: 2, IPC messages: 3, KV restore time: 4.081725ms, total virtual time: 1.410341725s
}
