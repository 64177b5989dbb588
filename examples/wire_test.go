package examples

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/simclock"
)

// runScript runs a lipscript file on a local kernel with the tools
// symphonyd serves and prints what lip-run -script prints for it, less
// the header.
func runScript(path string) {
	demo(func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error {
		lipscript.RegisterTools(k)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p, err := lipscript.Submit(k, "user", data)
		if err == nil {
			err = p.Wait()
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, p.Output())
		st := k.Stats()
		fmt.Fprintf(out, "---\nvirtual time %v · %d pred calls · %d tokens · %d tool calls · gpu busy %.0f%%\n",
			clk.Now().Round(time.Millisecond), st.PredCalls, st.PredTokens, st.ToolCalls, 100*st.Sched.Utilization)
		return nil
	})
}

// The agent script README posts to /v1/programs: plan, call the search
// tool, fold its answer back into the context and answer.
func Example_wireAgent() {
	runScript("wire/agent.json")
	// Output:
	// [tool] results for churi fame thichili fuba fudu
	// bicha vesu sese tokafo chedu defuvi
	// ---
	// virtual time 431ms · 4 pred calls · 58 tokens · 1 tool calls · gpu busy 65%
}

// The streaming script README submits to the v2 API and streams back.
func Example_wireStream() {
	runScript("wire/stream.json")
	// Output:
	// [streaming demo]
	// lebusu redotu tigabi tazizi thezochi mefe gusavu mutha tuveto tidudu bira tuzime gizuko tepeki gunothe gisatu kipu balu vuga tichize
	// ---
	// virtual time 435ms · 2 pred calls · 30 tokens · 0 tool calls · gpu busy 100%
}
