package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/workload"
)

// MultiRoundConfig parameterizes E5 (§2.1): a multi-round conversation
// with think time between rounds, while a second tenant's traffic puts
// pressure on the server's cache. The paper's complaint: "users lack the
// ability to manage KV cache retention, even when they possess knowledge
// of reuse patterns" — a server-side LRU evicts the idle conversation;
// a LIP that simply keeps its file open does not.
type MultiRoundConfig struct {
	Rounds     int
	TurnTokens int
	ReplyToks  int
	ThinkTime  time.Duration
	// PressurePrompts is how many distinct large prompts a second tenant
	// issues during each think window.
	PressurePrompts int
	PressureTokens  int
	GPUBytes        int64
}

// DefaultMultiRound returns the E5 configuration.
func DefaultMultiRound() MultiRoundConfig {
	return MultiRoundConfig{
		Rounds:          8,
		TurnTokens:      1024,
		ReplyToks:       16,
		ThinkTime:       5 * time.Second,
		PressurePrompts: 8,
		PressureTokens:  2500,
		GPUBytes:        12 << 30, // ~15k cached tokens: enough for the chat, not for everyone
	}
}

// MultiRoundPoint is one system's aggregate.
type MultiRoundPoint struct {
	System      string
	MeanRound   time.Duration // latency per round, think time excluded
	LastRound   time.Duration
	PrefillToks int64 // prompt tokens actually computed on the GPU
	CacheHit    float64
}

// RunMultiRound runs E5 across the three systems.
func RunMultiRound(cfg MultiRoundConfig) []MultiRoundPoint {
	var out []MultiRoundPoint
	for _, sys := range AllSystems {
		out = append(out, runMultiRoundCell(cfg, sys))
	}
	return out
}

func pressurePrompt(round, i, tokens int, tok *token.Tokenizer) []token.ID {
	return tok.Encode(syntheticPrompt(tokens/2, 9000+round*100+i))
}

func runMultiRoundCell(cfg MultiRoundConfig, sys string) MultiRoundPoint {
	clk := simclock.New()
	tok := token.NewTokenizer(token.NewVocab())
	turns := workload.ChatTrace(cfg.Rounds, cfg.TurnTokens, cfg.ReplyToks, 5)
	pt := MultiRoundPoint{System: sys}
	var roundSum time.Duration

	// The pressure tenant's own volume, excluded from the conversation's
	// prefill accounting below.
	var pressureTotal int64
	for r := 0; r < cfg.Rounds; r++ {
		for i := 0; i < cfg.PressurePrompts; i++ {
			pressureTotal += int64(len(pressurePrompt(r, i, cfg.PressureTokens, tok)))
		}
	}

	if sys == SystemSymphony {
		k := newKernel(clk, func(kc *core.Config) {
			kc.FS = fig3FS(cfg.GPUBytes, model.A100Llama13B().KVBytesPerToken)
			// Executor policy held equal with the run-to-completion
			// baselines: this experiment isolates cache retention, not
			// the scheduler (-exp slo studies that).
			kc.PriorityPolicy = sched.FIFO{}
			kc.Tokenizer = tok
		})
		drive(clk, func() {
			p := k.Submit("chat", func(ctx *core.Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				s := lip.NewSession(ctx, f)
				for r, turn := range turns {
					start := ctx.Clock().Now()
					if err := retryNoSpace(ctx, func() error {
						_, e := s.Prefill(turn.User)
						return e
					}); err != nil {
						return err
					}
					if _, err := lip.Generate(s, lip.GenOptions{MaxTokens: turn.MaxGen}); err != nil {
						return err
					}
					d := ctx.Clock().Now() - start
					roundSum += d
					pt.LastRound = d
					// User thinks; pressure tenant churns the server.
					spawnPressureLIPs(ctx, k, r, cfg)
					if err := ctx.Sleep(cfg.ThinkTime); err != nil {
						return err
					}
				}
				return nil
			})
			if err := p.Wait(); err != nil {
				panic(fmt.Sprintf("chat LIP failed: %v", err))
			}
		})
		// PredTokens counts everything; strip the chat replies and the
		// pressure tenant (prompts plus its 8-token generations).
		pt.PrefillToks = k.Stats().PredTokens -
			int64(cfg.Rounds*cfg.ReplyToks) -
			pressureTotal - int64(cfg.Rounds*cfg.PressurePrompts*8)
		pt.MeanRound = roundSum / time.Duration(cfg.Rounds)
		return pt
	}

	srv := newBaseline(clk, sys, func(bc *baseline.Config) {
		bc.FS = fig3FS(cfg.GPUBytes, bc.Model.Config().Cost.KVBytesPerToken)
	})
	link := netsim.Default(clk)
	client := baseline.NewClient(link, srv, tok)
	drive(clk, func() {
		var conv []token.ID
		for r, turn := range turns {
			conv = append(conv, tok.Encode(turn.User)...)
			start := clk.Now()
			resp, err := client.CompleteTokens(conv, turn.MaxGen)
			if err != nil {
				panic(fmt.Sprintf("chat request failed: %v", err))
			}
			d := clk.Now() - start
			roundSum += d
			pt.LastRound = d
			conv = append(conv, resp.Tokens...)
			// Pressure tenant churns the same server during think time.
			for i := 0; i < cfg.PressurePrompts; i++ {
				p := pressurePrompt(r, i, cfg.PressureTokens, tok)
				clk.Go("tenant2", func() {
					srv.Complete(baseline.Request{Prompt: p, MaxTokens: 8})
				})
			}
			clk.Sleep(cfg.ThinkTime)
		}
	})
	st := srv.Stats()
	pt.PrefillToks = st.PromptTokens - st.CachedTokens - pressureTotal
	pt.CacheHit = st.CacheHitRate
	pt.MeanRound = roundSum / time.Duration(cfg.Rounds)
	return pt
}

// spawnPressureLIPs submits the second tenant's programs to the shared
// Symphony kernel: big scratch contexts that come and go. They compete for
// GPU memory and compute but cannot evict the chat program's file.
func spawnPressureLIPs(ctx *core.Ctx, k *core.Kernel, round int, cfg MultiRoundConfig) {
	for i := 0; i < cfg.PressurePrompts; i++ {
		prompt := syntheticPrompt(cfg.PressureTokens/2, 9000+round*100+i)
		k.Submit("tenant2", func(c2 *core.Ctx) error {
			f, err := c2.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			s := lip.NewSession(c2, f)
			if err := retryNoSpace(c2, func() error {
				_, e := s.Prefill(prompt)
				return e
			}); err != nil {
				return err
			}
			_, err = lip.Generate(s, lip.GenOptions{MaxTokens: 8})
			return err
		})
	}
}

// MultiRoundTable renders E5.
func MultiRoundTable(points []MultiRoundPoint) metrics.Table {
	t := metrics.Table{
		Title:   "E5 (§2.1): 8-round chat under cache pressure from a second tenant",
		Headers: []string{"system", "mean-round", "last-round", "gpu-prefill-toks", "hit"},
	}
	for _, p := range points {
		t.AddRow(p.System, p.MeanRound, p.LastRound, p.PrefillToks, fmt.Sprintf("%.2f", p.CacheHit))
	}
	return t
}
