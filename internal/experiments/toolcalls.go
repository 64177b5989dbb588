package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// ToolCallsConfig parameterizes experiment E2 (§2.2): an agent that makes
// k sequential function calls. Under prompt serving the client is the
// interpreter — every call costs a network round trip plus re-shipping
// (and for TGI re-prefilling) the grown conversation. Under Symphony the
// whole loop is one LIP: tools execute server-side and the KV cache
// persists across calls.
type ToolCallsConfig struct {
	Calls       []int         // numbers of sequential tool calls to sweep
	ToolLatency time.Duration // external API latency per call
	SysTokens   int           // system prompt length
	GenPerCall  int           // tokens generated to request each call
	ResultLen   int           // words in each tool result
	FinalGen    int           // tokens of final answer
}

// DefaultToolCalls returns the E2 configuration.
func DefaultToolCalls() ToolCallsConfig {
	return ToolCallsConfig{
		Calls:       []int{1, 2, 4, 8},
		ToolLatency: 100 * time.Millisecond,
		SysTokens:   200,
		GenPerCall:  24,
		ResultLen:   8,
		FinalGen:    24,
	}
}

// ToolCallsPoint is one (system, k) measurement.
type ToolCallsPoint struct {
	System      string
	Calls       int
	E2E         time.Duration
	PrefillToks int64 // prompt tokens pushed through the GPU
}

func syntheticPrompt(words int, seed int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		fmt.Fprintf(&b, "w%d_%d ", seed, i)
	}
	return b.String()
}

func toolResult(call int, words int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "result %d:", call)
	for i := 0; i < words; i++ {
		fmt.Fprintf(&b, " r%d_%d", call, i)
	}
	return b.String()
}

// RunToolCalls sweeps E2 across systems and call counts.
func RunToolCalls(cfg ToolCallsConfig) []ToolCallsPoint {
	var out []ToolCallsPoint
	for _, k := range cfg.Calls {
		for _, sys := range AllSystems {
			out = append(out, runToolCallsCell(cfg, sys, k))
		}
	}
	return out
}

func runToolCallsCell(cfg ToolCallsConfig, sys string, calls int) ToolCallsPoint {
	clk := simclock.New()
	tok := token.NewTokenizer(token.NewVocab())
	link := netsim.Default(clk)
	sysPrompt := syntheticPrompt(cfg.SysTokens/2, 7)
	pt := ToolCallsPoint{System: sys, Calls: calls}

	if sys == SystemSymphony {
		k := newKernel(clk, func(kc *core.Config) {
			// Executor policy held equal with the run-to-completion
			// baselines: this experiment isolates tool-wait offload, not
			// the scheduler (-exp slo studies that).
			kc.PriorityPolicy = sched.FIFO{}
			kc.Tokenizer = tok
		})
		k.RegisterTool("api", core.Tool{
			Latency: cfg.ToolLatency,
			Fn:      func(args string) (string, error) { return toolResult(len(args), cfg.ResultLen), nil },
		})
		drive(clk, func() {
			start := clk.Now()
			link.OneWay(2048 + len(sysPrompt))
			p := k.Submit("agent", func(ctx *core.Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				s := lip.NewSession(ctx, f)
				if _, err := s.Prefill(sysPrompt); err != nil {
					return err
				}
				for i := 0; i < calls; i++ {
					if _, err := lip.Generate(s, lip.GenOptions{MaxTokens: cfg.GenPerCall}); err != nil {
						return err
					}
					res, err := ctx.Call("api", fmt.Sprintf("%*s", i, ""))
					if err != nil {
						return err
					}
					if _, err := s.Prefill(res); err != nil {
						return err
					}
				}
				res, err := lip.Generate(s, lip.GenOptions{MaxTokens: cfg.FinalGen})
				if err != nil {
					return err
				}
				ctx.EmitTokens(res.Tokens)
				return nil
			})
			p.Wait()
			link.OneWay(len(p.Output()))
			pt.E2E = clk.Now() - start
		})
		pt.PrefillToks = k.Stats().PredTokens
		return pt
	}

	// Prompt-serving agent: the client interprets tool calls.
	srv := newBaseline(clk, sys, nil)
	client := baseline.NewClient(link, srv, tok)
	drive(clk, func() {
		start := clk.Now()
		conv := tok.Encode(sysPrompt)
		for i := 0; i < calls; i++ {
			resp, err := client.CompleteTokens(conv, cfg.GenPerCall)
			if err != nil {
				return
			}
			conv = append(conv, resp.Tokens...)
			// The client executes the external call itself.
			clk.Sleep(cfg.ToolLatency)
			conv = append(conv, tok.Encode(toolResult(i, cfg.ResultLen))...)
		}
		if _, err := client.CompleteTokens(conv, cfg.FinalGen); err != nil {
			return
		}
		pt.E2E = clk.Now() - start
	})
	pt.PrefillToks = srv.Stats().PromptTokens - srv.Stats().CachedTokens
	return pt
}

// ToolCallsTable renders E2.
func ToolCallsTable(points []ToolCallsPoint) metrics.Table {
	t := metrics.Table{
		Title:   "E2 (§2.2): agent with k sequential tool calls, end-to-end latency",
		Headers: []string{"calls", "system", "e2e", "norm-vs-tgi", "gpu-prefill-toks"},
	}
	ref := map[int]ToolCallsPoint{}
	for _, p := range points {
		if p.System == SystemTGI {
			ref[p.Calls] = p
		}
	}
	for _, p := range points {
		norm := "-"
		if r, ok := ref[p.Calls]; ok && r.E2E > 0 {
			norm = fmt.Sprintf("%.3f", float64(p.E2E)/float64(r.E2E))
		}
		t.AddRow(p.Calls, p.System, p.E2E, norm, p.PrefillToks)
	}
	return t
}
