package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/token"
)

// TreeConfig parameterizes E6 (§4.3): Tree-of-Thought exploration. A
// Symphony LIP runs the whole tree server-side — one thread per branch,
// each forking its parent's KV file copy-on-write. The prompt-serving
// equivalent issues one completion request per node, re-shipping the full
// path prefix every time.
type TreeConfig struct {
	Branch     int
	Depth      int
	RootTokens int
	NodeGen    int // tokens generated per hypothesis node
}

// DefaultTree returns the E6 configuration: 3^3 = 39 nodes.
func DefaultTree() TreeConfig {
	return TreeConfig{Branch: 3, Depth: 3, RootTokens: 256, NodeGen: 24}
}

// TreePoint is one system's measurement.
type TreePoint struct {
	System    string
	Nodes     int
	E2E       time.Duration
	GPUTokens int64 // total tokens pushed through pred
	CacheHit  float64
}

// RunTree runs E6 across the three systems.
func RunTree(cfg TreeConfig) []TreePoint {
	var out []TreePoint
	for _, sys := range AllSystems {
		out = append(out, runTreeCell(cfg, sys))
	}
	return out
}

func treeNodes(cfg TreeConfig) int {
	n, level := 0, 1
	for d := 0; d < cfg.Depth; d++ {
		level *= cfg.Branch
		n += level
	}
	return n
}

func runTreeCell(cfg TreeConfig, sys string) TreePoint {
	clk := simclock.New()
	tok := token.NewTokenizer(token.NewVocab())
	link := netsim.Default(clk)
	rootPrompt := syntheticPrompt(cfg.RootTokens/2, 31)
	pt := TreePoint{System: sys, Nodes: treeNodes(cfg)}

	if sys == SystemSymphony {
		k := newKernel(clk, func(kc *core.Config) { kc.Tokenizer = tok })
		drive(clk, func() {
			start := clk.Now()
			link.OneWay(2048 + len(rootPrompt))
			p := k.Submit("tot", func(ctx *core.Ctx) error {
				f, err := ctx.KvAnon()
				if err != nil {
					return err
				}
				defer f.Remove()
				root := lip.NewSession(ctx, f)
				if _, err := root.Prefill(rootPrompt); err != nil {
					return err
				}
				return expandTree(ctx, root, cfg, cfg.Depth)
			})
			p.Wait()
			link.OneWay(512)
			pt.E2E = clk.Now() - start
		})
		pt.GPUTokens = k.Stats().PredTokens
		return pt
	}

	srv := newBaseline(clk, sys, nil)
	client := baseline.NewClient(link, srv, tok)
	drive(clk, func() {
		start := clk.Now()
		// Breadth-first client-side tree: each node is a full request over
		// the concatenated path.
		level := [][]token.ID{tok.Encode(rootPrompt)}
		for d := 0; d < cfg.Depth; d++ {
			next := make([][]token.ID, 0, len(level)*cfg.Branch)
			results := make([][]token.ID, len(level)*cfg.Branch)
			wg := clk.NewWaitGroup()
			for li, path := range level {
				for b := 0; b < cfg.Branch; b++ {
					li, b, path := li, b, path
					wg.Add(1)
					clk.Go("node", func() {
						defer wg.Done()
						prompt := append(append([]token.ID(nil), path...),
							tok.Encode(fmt.Sprintf(" branch %d:", b))...)
						resp, err := client.CompleteTokens(prompt, cfg.NodeGen)
						if err != nil {
							return
						}
						results[li*cfg.Branch+b] = append(prompt, resp.Tokens...)
					})
				}
			}
			wg.Wait()
			for _, r := range results {
				if r != nil {
					next = append(next, r)
				}
			}
			level = next
		}
		pt.E2E = clk.Now() - start
	})
	st := srv.Stats()
	pt.GPUTokens = st.PromptTokens - st.CachedTokens + st.DecodeTokens
	pt.CacheHit = st.CacheHitRate
	return pt
}

// expandTree grows the hypothesis tree: fork the parent session per
// branch, generate one hypothesis in its own thread, recurse.
func expandTree(ctx *core.Ctx, parent *lip.Session, cfg TreeConfig, depth int) error {
	if depth == 0 {
		return nil
	}
	var threads []*core.Thread
	for b := 0; b < cfg.Branch; b++ {
		b := b
		kv, err := ctx.KvFork(parent.KV())
		if err != nil {
			return err
		}
		th, err := ctx.Spawn(func(tc *core.Ctx) error {
			s := lip.NewSession(tc, kv)
			defer s.Close()
			if _, err := s.Prefill(fmt.Sprintf(" branch %d:", b)); err != nil {
				return err
			}
			if _, err := lip.Generate(s, lip.GenOptions{MaxTokens: cfg.NodeGen}); err != nil {
				return err
			}
			return expandTree(tc, s, cfg, depth-1)
		})
		if err != nil {
			return err
		}
		threads = append(threads, th)
	}
	for _, th := range threads {
		if err := th.Join(); err != nil {
			return err
		}
	}
	return nil
}

// TreeTable renders E6.
func TreeTable(points []TreePoint) metrics.Table {
	t := metrics.Table{
		Title:   "E6 (§4.3): Tree-of-Thought, fork-per-branch LIP vs per-node requests",
		Headers: []string{"system", "nodes", "e2e", "norm-vs-tgi", "gpu-tokens", "hit"},
	}
	var ref TreePoint
	for _, p := range points {
		if p.System == SystemTGI {
			ref = p
		}
	}
	for _, p := range points {
		norm := "-"
		if ref.E2E > 0 {
			norm = fmt.Sprintf("%.3f", float64(p.E2E)/float64(ref.E2E))
		}
		t.AddRow(p.System, p.Nodes, p.E2E, norm, p.GPUTokens, fmt.Sprintf("%.2f", p.CacheHit))
	}
	return t
}
