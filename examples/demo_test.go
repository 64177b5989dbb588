// Package examples holds the repository's demo LLM Inference Programs as
// testable examples. Each Example_<name> runs one program on a kernel
// over a fresh virtual clock and checks what it prints against its Output
// comment, so go test executes every demo deterministically:
//
//	go test ./examples -run Example -v
package examples

import (
	"fmt"
	"io"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/simclock"
)

var trailingBlanks = regexp.MustCompile(`(?m) +$`)

// demo runs client as the one client actor on a fresh virtual clock whose
// kernel is core.DefaultConfig(), waits until the simulation is
// quiescent and shuts the clock down. It then prints what client wrote to
// out, and the error client returned, if any, with every line's trailing
// blanks cut: an Output comment cannot hold them.
func demo(client func(clk *simclock.Clock, k *core.Kernel, out io.Writer) error) {
	clk := simclock.New()
	k := core.New(clk, core.DefaultConfig())
	var out strings.Builder
	clk.Go("client", func() {
		if err := client(clk, k, &out); err != nil {
			fmt.Fprintln(&out, "error:", err)
		}
	})
	clk.WaitQuiescent()
	clk.Shutdown()
	fmt.Print(trailingBlanks.ReplaceAllString(out.String(), ""))
}

// anon opens a session on a fresh anonymous KV file and prefills prompt.
// Closing the session removes the file.
func anon(ctx *core.Ctx, prompt string) (*lip.Session, error) {
	kv, err := ctx.KvAnon()
	if err != nil {
		return nil, err
	}
	s := lip.NewSession(ctx, kv)
	if _, err := s.Prefill(prompt); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}
