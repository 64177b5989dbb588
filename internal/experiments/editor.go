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
	"repro/internal/workload"
)

// EditorConfig parameterizes E7, the paper's opening example (§2): an
// LLM-based code editor requesting a completion on every keystroke. The
// Symphony LIP keeps the buffer's KV file resident, appends typed tokens,
// rolls deletions back with Truncate, and serves each completion from a
// throwaway fork. Prompt-serving clients re-send the whole buffer per
// keystroke.
type EditorConfig struct {
	BufferTokens int
	Keystrokes   int
	TypeGap      time.Duration // time between keystrokes
	CompleteToks int           // completion length shown to the user
	Seed         int64
}

// DefaultEditor returns the E7 configuration.
func DefaultEditor() EditorConfig {
	return EditorConfig{
		BufferTokens: 2000,
		Keystrokes:   120,
		TypeGap:      150 * time.Millisecond,
		CompleteToks: 8,
		Seed:         11,
	}
}

// EditorPoint is one system's aggregate.
type EditorPoint struct {
	System      string
	MeanLatency time.Duration // keystroke → completion visible
	P99Latency  time.Duration
	GPUTokens   int64
	CacheHit    float64
}

// RunEditor runs E7 across the three systems.
func RunEditor(cfg EditorConfig) []EditorPoint {
	var out []EditorPoint
	for _, sys := range AllSystems {
		out = append(out, runEditorCell(cfg, sys))
	}
	return out
}

func runEditorCell(cfg EditorConfig, sys string) EditorPoint {
	clk := simclock.New()
	tok := token.NewTokenizer(token.NewVocab())
	link := netsim.Default(clk)
	trace := workload.EditorTrace(cfg.Keystrokes, cfg.Seed)
	base := syntheticPrompt(cfg.BufferTokens/2, 77)
	lat := metrics.NewHistogram()
	pt := EditorPoint{System: sys}

	if sys == SystemSymphony {
		k := newKernel(clk, func(kc *core.Config) {
			// Executor policy held equal with the run-to-completion
			// baselines: this experiment isolates incremental KV edits,
			// not the scheduler (-exp slo studies that).
			kc.PriorityPolicy = sched.FIFO{}
			kc.Tokenizer = tok
		})
		drive(clk, func() {
			p := k.Submit("editor", func(ctx *core.Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				buf := lip.NewSession(ctx, f)
				if _, err := buf.Prefill(base); err != nil {
					return err
				}
				for _, ks := range trace {
					ctx.Sleep(cfg.TypeGap)
					start := ctx.Clock().Now()
					// Keystroke travels client → server.
					ctx.Sleep(link.TransferTime(8))
					if ks.Delete > 0 {
						n := f.Len() - ks.Delete
						if n < 1 {
							n = 1
						}
						if err := buf.Rollback(n); err != nil {
							return err
						}
						// A deletion leaves no pending distribution; a
						// one-token cursor-marker pred re-primes it (and is
						// rolled back with the completion below).
						if _, err := buf.Prefill("⎀"); err != nil {
							return err
						}
					} else if _, err := buf.Prefill(ks.Append); err != nil {
						return err
					}
					// The completion decodes directly on the buffer file and
					// is truncated away afterwards — KV surgery that costs
					// zero model computation (§4.2).
					genStart := f.Len()
					res, err := lip.Generate(buf, lip.GenOptions{MaxTokens: cfg.CompleteToks})
					if err != nil {
						return err
					}
					keep := genStart
					if ks.Delete > 0 {
						keep-- // drop the cursor marker too
					}
					if err := buf.Rollback(keep); err != nil {
						return err
					}
					// Completion travels server → client.
					ctx.Sleep(link.TransferTime(len(ctx.Detokenize(res.Tokens))))
					lat.Add(ctx.Clock().Now() - start)
				}
				return nil
			})
			if err := p.Wait(); err != nil {
				panic(fmt.Sprintf("editor LIP failed: %v", err))
			}
		})
		pt.GPUTokens = k.Stats().PredTokens
		pt.MeanLatency, pt.P99Latency = lat.Mean(), lat.Quantile(0.99)
		return pt
	}

	srv := newBaseline(clk, sys, nil)
	client := baseline.NewClient(link, srv)
	drive(clk, func() {
		var sb strings.Builder
		sb.WriteString(base)
		buffer := sb.String()
		for _, ks := range trace {
			clk.Sleep(cfg.TypeGap)
			if ks.Delete > 0 {
				toks := tok.Encode(buffer)
				n := len(toks) - ks.Delete
				if n < 1 {
					n = 1
				}
				buffer = tok.Decode(toks[:n])
			} else {
				buffer += ks.Append
			}
			start := clk.Now()
			if _, err := client.CompleteTokens(tok.Encode(buffer+"⎀"), cfg.CompleteToks); err != nil {
				panic(fmt.Sprintf("editor request failed: %v", err))
			}
			lat.Add(clk.Now() - start)
		}
	})
	st := srv.Stats()
	pt.GPUTokens = st.PromptTokens - st.CachedTokens + st.DecodeTokens
	pt.CacheHit = st.CacheHitRate
	pt.MeanLatency, pt.P99Latency = lat.Mean(), lat.Quantile(0.99)
	return pt
}

// EditorTable renders E7.
func EditorTable(points []EditorPoint) metrics.Table {
	t := metrics.Table{
		Title:   "E7 (§2): per-keystroke live completion over a 2000-token buffer",
		Headers: []string{"system", "mean-keystroke", "p99", "norm-vs-tgi", "gpu-tokens", "hit"},
	}
	var ref EditorPoint
	for _, p := range points {
		if p.System == SystemTGI {
			ref = p
		}
	}
	for _, p := range points {
		norm := "-"
		if ref.MeanLatency > 0 {
			norm = fmt.Sprintf("%.3f", float64(p.MeanLatency)/float64(ref.MeanLatency))
		}
		t.AddRow(p.System, p.MeanLatency, p.P99Latency, norm, p.GPUTokens, fmt.Sprintf("%.2f", p.CacheHit))
	}
	return t
}
