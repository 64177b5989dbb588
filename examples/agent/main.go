// Agent shows §2.2's fix for function-calling round trips: the whole
// agent loop — generate, call a tool, fold the result back into the KV
// context — runs inside one LIP, with tools executing server-side. A
// second cooperative agent receives progress reports over kernel IPC
// (§4.3's multi-agent communication).
//
// Run with: go run ./examples/agent
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

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
	// Server-side tools: a weather API and a calculator, each with real
	// external latency that the kernel overlaps with KV offload.
	kernel.RegisterTool("weather", core.Tool{
		Latency: 120 * time.Millisecond,
		Fn: func(args string) (string, error) {
			return fmt.Sprintf("weather(%s) = sunny, 21C", args), nil
		},
	})
	kernel.RegisterTool("calc", core.Tool{
		Latency: 60 * time.Millisecond,
		Fn: func(args string) (string, error) {
			return fmt.Sprintf("calc(%s) = 42", args), nil
		},
	})

	clk.Go("client", func() {
		// The logger agent waits for progress messages from the worker.
		logger := kernel.Submit("ops", func(ctx *core.Ctx) error {
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

		worker := kernel.Submit("agent", func(ctx *core.Ctx) error {
			kv, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer kv.Remove()
			s := lip.NewSession(ctx, kv)
			if _, err := s.Prefill("Plan a picnic. Check the weather, then compute the budget. "); err != nil {
				return err
			}
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
			log.Fatalf("worker: %v", err)
		}
		if err := logger.Wait(); err != nil {
			log.Fatalf("logger: %v", err)
		}
		fmt.Print(logger.Output())
		fmt.Print(worker.Output())
		st := kernel.Stats()
		fmt.Printf("\ntool calls: %d, IPC messages: %d, KV restore time: %v, total virtual time: %v\n",
			st.ToolCalls, st.IPCMessages, st.RestoreTime, clk.Now())
	})
	clk.WaitQuiescent()
	clk.Shutdown()
}
