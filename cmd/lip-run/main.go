// Command lip-run runs a declarative LLM Inference Program (a lipscript
// JSON file) against a local Symphony kernel and prints its output,
// optionally pacing virtual time against the wall clock so the serving
// dynamics are watchable. The local kernel offers the same tools as
// symphonyd, so a script answers the same here as on the daemon.
//
// Usage:
//
//	lip-run -script examples/wire/agent.json -trace agent.trace.json
//	lip-run -script examples/wire/stream.json -speedup 20
//	lip-run -remote http://localhost:8080 -script examples/wire/stream.json
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
	"repro/internal/lipscript"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func main() {
	speedup := flag.Float64("speedup", 0, "pace virtual time at this multiple of wall time (0 = run instantly)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run (open in chrome://tracing)")
	script := flag.String("script", "", "the declarative lipscript JSON file to run (required; see examples/wire/agent.json)")
	remote := flag.String("remote", "", "submit -script to a running symphonyd at this URL as a v2 job and stream its events")
	remoteUser := flag.String("user", "lip-run", "tenant name for -remote submissions")
	cancelAfter := flag.Duration("cancel-after", 0, "with -remote, cancel the job after this wall-clock delay (0 = never)")
	flag.Parse()

	if *script == "" {
		fmt.Fprintln(os.Stderr, "lip-run: -script is required")
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*script)
	if err != nil {
		log.Fatalf("script: %v", err)
	}
	if *remote != "" {
		if err := runRemote(*remote, *remoteUser, data, *cancelAfter); err != nil {
			log.Fatal(err)
		}
		return
	}

	parsed, err := lipscript.Parse(data)
	if err != nil {
		log.Fatalf("script: %v", err)
	}
	fmt.Printf("running %s (%d steps, %d wire bytes)\n", *script, len(parsed.Steps), parsed.WireBytes())

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
	cfg := core.DefaultConfig()
	cfg.Tracer = tracer
	kernel := core.New(clk, cfg)
	lipscript.RegisterTools(kernel)

	clk.Go("client", func() {
		p, err := lipscript.Submit(kernel, "user", data)
		if err == nil {
			err = p.Wait()
		}
		if err != nil {
			log.Fatalf("LIP failed: %v", err)
		}
		fmt.Println(p.Output())
		st := kernel.Stats()
		fmt.Printf("---\nvirtual time %v · %d pred calls · %d tokens · %d tool calls · gpu busy %.0f%%\n",
			clk.Now().Round(time.Millisecond), st.PredCalls, st.PredTokens,
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
