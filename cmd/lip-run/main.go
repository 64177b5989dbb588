// Command lip-run executes a demo LLM Inference Program against a local
// Symphony kernel and streams its output, optionally pacing virtual time
// against the wall clock so the serving dynamics are watchable.
//
// Usage:
//
//	lip-run -demo chat -prompt "hello there" -tokens 48
//	lip-run -demo parallel -speedup 20
//	lip-run -remote http://localhost:8080 -script examples/wire/stream.json
//
// Demos: chat (plain completion), parallel (Figure 2 shared-prefix
// branches), agent (server-side tool calls), json (grammar-constrained).
//
// With -remote, the script is submitted to a running symphonyd as an
// asynchronous v2 job and its events (statements, token chunks, emits,
// terminal status) stream back live; Ctrl-C cancels the server-side
// process instead of abandoning it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/lip"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

func main() {
	demo := flag.String("demo", "chat", "demo to run (chat|parallel|agent|json)")
	prompt := flag.String("prompt", "Serve programs, not prompts.", "prompt text")
	tokens := flag.Int("tokens", 48, "generation budget")
	temp := flag.Float64("temp", 0.8, "sampling temperature (0 = greedy)")
	seed := flag.Uint64("seed", 1, "sampler seed")
	speedup := flag.Float64("speedup", 0, "pace virtual time at this multiple of wall time (0 = run instantly)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run (open in chrome://tracing)")
	script := flag.String("script", "", "run a declarative lipscript JSON file instead of a built-in demo (see examples/wire/agent.json)")
	remote := flag.String("remote", "", "submit -script to a running symphonyd at this URL as a v2 job and stream its events")
	remoteUser := flag.String("user", "lip-run", "tenant name for -remote submissions")
	cancelAfter := flag.Duration("cancel-after", 0, "with -remote, cancel the job after this wall-clock delay (0 = never)")
	flag.Parse()

	if *remote != "" {
		if *script == "" {
			log.Fatal("-remote requires -script (only declarative programs cross the network)")
		}
		if err := runRemote(*remote, *remoteUser, *script, *cancelAfter); err != nil {
			log.Fatal(err)
		}
		return
	}

	var clk *simclock.Clock
	if *speedup > 0 {
		clk = simclock.NewRealtime(*speedup)
	} else {
		clk = simclock.New()
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
	}
	target := model.New(model.Llama13B())
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel: "llama-13b",
		Tracer:       tracer,
	})
	kernel.RegisterTool("search", core.Tool{
		Latency: 150 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "search results for " + args, nil },
	})

	var prog core.Program
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			log.Fatalf("script: %v", err)
		}
		parsed, err := lipscript.Parse(data)
		if err != nil {
			log.Fatalf("script: %v", err)
		}
		fmt.Printf("running %s (%d steps, %d wire bytes)\n", *script, len(parsed.Steps), parsed.WireBytes())
		prog = parsed.Program()
	} else {
		switch *demo {
		case "chat":
			prog = chatDemo(*prompt, *tokens, *temp, *seed)
		case "parallel":
			prog = parallelDemo(*prompt, *tokens, *temp, *seed)
		case "agent":
			prog = agentDemo(*prompt, *tokens)
		case "json":
			prog = jsonDemo(*prompt, *tokens, *temp, *seed)
		default:
			fmt.Fprintf(os.Stderr, "unknown demo %q\n", *demo)
			flag.Usage()
			os.Exit(2)
		}
	}

	clk.Go("client", func() {
		start := clk.Now()
		p := kernel.Submit("user", prog)
		if err := p.Wait(); err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Println(p.Output())
		st := kernel.Stats()
		fmt.Printf("---\nvirtual time %v · %d pred calls · %d tokens · %d tool calls · gpu busy %.0f%%\n",
			(clk.Now() - start).Round(time.Millisecond), st.PredCalls, st.PredTokens,
			st.ToolCalls, 100*st.Sched.Utilization)
	})
	clk.WaitQuiescent()
	clk.Shutdown()

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer f.Close()
		if err := tracer.WriteChrome(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Printf("wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
	}
}

func chatDemo(prompt string, tokens int, temp float64, seed uint64) core.Program {
	return func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer kv.Remove()
		s := lip.NewSession(ctx, kv)
		if _, err := s.Prefill(prompt); err != nil {
			return err
		}
		_, err = lip.Generate(s, lip.GenOptions{
			MaxTokens: tokens,
			Sampler:   &lip.Sampler{Temperature: temp, Seed: seed},
			Stream:    func(t token.ID) { ctx.EmitTokens([]token.ID{t}) },
		})
		return err
	}
}

func parallelDemo(prompt string, tokens int, temp float64, seed uint64) core.Program {
	return func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer kv.Remove()
		base := lip.NewSession(ctx, kv)
		if _, err := base.Prefill(prompt); err != nil {
			return err
		}
		branches, err := lip.ParallelGenerate(base,
			[]string{" first take:", " second take:", " third take:"},
			lip.GenOptions{
				MaxTokens: tokens,
				Sampler:   &lip.Sampler{Temperature: temp, Seed: seed},
			})
		if err != nil {
			return err
		}
		for _, b := range branches {
			if b.Err != nil {
				return b.Err
			}
			ctx.Emit(fmt.Sprintf("branch %d (score %.2f): %s\n", b.Index, b.Score, ctx.Detokenize(b.Result.Tokens)))
		}
		best, err := lip.Best(branches)
		if err != nil {
			return err
		}
		ctx.Emit(fmt.Sprintf("best branch: %d\n", best.Index))
		return nil
	}
}

func agentDemo(prompt string, tokens int) core.Program {
	return func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer kv.Remove()
		s := lip.NewSession(ctx, kv)
		if _, err := s.Prefill(prompt + " Use the search tool. "); err != nil {
			return err
		}
		if _, err := lip.Generate(s, lip.GenOptions{MaxTokens: tokens / 2}); err != nil {
			return err
		}
		obs, err := ctx.Call("search", prompt)
		if err != nil {
			return err
		}
		ctx.Emit("[tool] " + obs + "\n")
		if _, err := s.Prefill(obs); err != nil {
			return err
		}
		res, err := lip.Generate(s, lip.GenOptions{MaxTokens: tokens / 2})
		if err != nil {
			return err
		}
		ctx.Emit(ctx.Detokenize(res.Tokens) + "\n")
		return nil
	}
}

func jsonDemo(prompt string, tokens int, temp float64, seed uint64) core.Program {
	return func(ctx *core.Ctx) error {
		kv, err := ctx.KvAnon()
		if err != nil {
			return err
		}
		defer kv.Remove()
		s := lip.NewSession(ctx, kv)
		if _, err := s.Prefill(prompt + " as JSON: "); err != nil {
			return err
		}
		vocab := ctx.Kernel().Tokenizer().Vocab()
		res, err := lip.Generate(s, lip.GenOptions{
			MaxTokens:  tokens * 4,
			Sampler:    &lip.Sampler{Temperature: temp, Seed: seed},
			Constraint: grammar.NewJSONConstraint(grammar.JSONLexicon(vocab, "answer", "score")),
		})
		if err != nil {
			return err
		}
		ctx.Emit(ctx.Detokenize(res.Tokens) + "\n")
		if !res.ConstraintDone {
			ctx.Emit("(budget exhausted before the document closed)\n")
		}
		return nil
	}
}
