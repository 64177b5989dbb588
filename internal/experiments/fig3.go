package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/lip"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/workload"
)

// Fig3Config parameterizes the paper's §5 experiment: a RAG application
// over 100 documents of 3,000 tokens, Pareto-skewed topic popularity,
// Poisson arrivals, compared across Symphony (a LIP pinning the KV cache
// of the top-20 topics), vLLM-sim, and TGI-sim.
type Fig3Config struct {
	Rates         []float64 // request rates (req/s) to sweep
	ParetoIndices []float64 // skew sweep; small = skewed
	Systems       []string  // subset of AllSystems; nil = all

	Topics    int // number of documents/topics (paper: 100)
	DocTokens int // tokens per document (paper: 3000)
	PinTop    int // topics whose KV the LIP retains (paper: 20)
	GenTokens int // answer length per request

	Duration time.Duration // arrival window; requests = rate × duration
	GPUBytes int64         // KV budget (A100-80GB minus 13B weights)
	Seed     int64
}

// DefaultFig3 returns the paper-scale configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		Rates:         []float64{1, 2, 4, 8, 16},
		ParetoIndices: []float64{0.3, 0.6, 1.0, 2.0},
		Topics:        100,
		DocTokens:     3000,
		PinTop:        20,
		GenTokens:     32,
		Duration:      30 * time.Second,
		GPUBytes:      54 << 30, // 80 GB HBM − 26 GB fp16 weights
		Seed:          1,
	}
}

// QuickFig3 returns a reduced grid for smoke tests and testing.B.
func QuickFig3() Fig3Config {
	c := DefaultFig3()
	c.Rates = []float64{2, 8}
	c.ParetoIndices = []float64{0.3, 2.0}
	c.Duration = 10 * time.Second
	return c
}

// Fig3Point is one (system, rate, skew) measurement.
type Fig3Point struct {
	System      string
	Rate        float64
	Pareto      float64
	Requests    int
	Failed      int
	MeanLatency time.Duration // end-to-end per request
	LatPerTok   time.Duration // mean E2E latency per generated token (Fig 3 left)
	P99Latency  time.Duration
	Throughput  float64 // completed requests / makespan (Fig 3 right)
	CacheHit    float64 // fraction of prompt tokens served from reuse
	GPUBusy     float64 // scheduler utilization over the run
}

// RunFig3 sweeps the full grid and returns one point per cell.
func RunFig3(cfg Fig3Config) []Fig3Point {
	systems := cfg.Systems
	if systems == nil {
		systems = AllSystems
	}
	var out []Fig3Point
	for _, pareto := range cfg.ParetoIndices {
		for _, rate := range cfg.Rates {
			for _, sys := range systems {
				out = append(out, runFig3Cell(cfg, sys, rate, pareto))
			}
		}
	}
	return out
}

// fig3Cell bundles the per-run state shared by the drivers.
type fig3Cell struct {
	cfg    Fig3Config
	clk    *simclock.Clock
	tok    *token.Tokenizer
	docs   []string
	trace  []workload.RAGRequest
	link   *netsim.Link
	lat    *metrics.Histogram
	perTok *metrics.Welford
	failed *metrics.Counter
	lastAt time.Duration
	// decoded sums the answer tokens of the completed requests that a
	// pred computed.
	decoded int64
}

func newFig3Cell(cfg Fig3Config, rate, pareto float64) *fig3Cell {
	n := int(rate * cfg.Duration.Seconds())
	if n < 20 {
		n = 20
	}
	corpus := workload.NewCorpus(cfg.Topics, cfg.DocTokens)
	docs := make([]string, cfg.Topics)
	for i := range docs {
		docs[i] = corpus.Doc(i)
	}
	clk := simclock.New()
	return &fig3Cell{
		cfg:    cfg,
		clk:    clk,
		tok:    token.NewTokenizer(token.NewVocab()),
		docs:   docs,
		trace:  workload.RAGTrace(n, rate, pareto, cfg.Topics, cfg.GenTokens, cfg.Seed),
		link:   netsim.Default(clk),
		lat:    metrics.NewHistogram(),
		perTok: &metrics.Welford{},
		failed: &metrics.Counter{},
	}
}

func (c *fig3Cell) fsConfig(bytesPerToken int64) kvfs.Config {
	return fig3FS(c.cfg.GPUBytes, bytesPerToken)
}

func (c *fig3Cell) record(arrive time.Duration, genTokens int) {
	now := c.clk.Now()
	d := now - arrive
	c.lat.Add(d)
	if genTokens > 0 {
		c.perTok.Add(float64(d) / float64(genTokens))
	}
	if now > c.lastAt {
		c.lastAt = now
	}
}

// replay plays the cell's trace open loop: each request is served by its
// own client actor at its arrival time.
func (c *fig3Cell) replay(serve func(i int, req workload.RAGRequest)) {
	openLoop(c.clk, len(c.trace), func(i int) time.Duration { return c.trace[i].Arrive },
		func(i int) { serve(i, c.trace[i]) })
}

func (c *fig3Cell) point(sys string, rate, pareto float64, hit float64, busy float64) Fig3Point {
	return Fig3Point{
		System:      sys,
		Rate:        rate,
		Pareto:      pareto,
		Requests:    len(c.trace),
		Failed:      int(c.failed.Value()),
		MeanLatency: c.lat.Mean(),
		LatPerTok:   time.Duration(c.perTok.Mean()),
		P99Latency:  c.lat.Quantile(0.99),
		Throughput:  perSecond(c.lat.Count(), c.lastAt),
		CacheHit:    hit,
		GPUBusy:     busy,
	}
}

func runFig3Cell(cfg Fig3Config, sys string, rate, pareto float64) Fig3Point {
	c := newFig3Cell(cfg, rate, pareto)
	switch sys {
	case SystemSymphony:
		return c.runSymphony(rate, pareto)
	case SystemVLLM, SystemTGI:
		return c.runBaseline(sys, rate, pareto)
	}
	panic("experiments: unknown system " + sys)
}

// --- Symphony driver ---

// ragProgram is the paper's §5 LIP: the application's own prompt-caching
// policy. Popular topics (rank < PinTop) live in named, shared KV files
// that persist across requests; the program builds them on first use under
// an advisory lock and forks them afterwards. Unpopular topics use a
// scratch file that is discarded. Memory pressure is the kernel's: a
// pred or fork that finds the GPU tier full waits at the kernel's space
// gate. The answer is one greedy decode run; its length goes to generated,
// and how many of its tokens a pred computed to decoded.
func (c *fig3Cell) ragProgram(req workload.RAGRequest, generated, decoded *int) core.Program {
	return func(ctx *core.Ctx) error {
		var sess *lip.Session
		if req.Topic < c.cfg.PinTop {
			path := fmt.Sprintf("docs/%03d.kv", req.Topic)
			f, err := ctx.KvOpen(path, true)
			if errors.Is(err, kvfs.ErrNotExist) {
				f, err = ctx.KvCreate(path, kvfs.ModeShared)
				if errors.Is(err, kvfs.ErrExist) {
					f, err = ctx.KvOpen(path, true)
				}
			}
			if err != nil {
				return err
			}
			if err := ctx.KvLock(f); err != nil {
				return err
			}
			if f.Len() == 0 {
				builder := lip.NewSession(ctx, f)
				if _, err := builder.Prefill(c.docs[req.Topic]); err != nil {
					ctx.KvUnlock(f)
					return err
				}
			}
			if err := ctx.KvUnlock(f); err != nil {
				return err
			}
			fork, err := ctx.KvFork(f)
			if err != nil {
				return err
			}
			defer fork.Remove()
			sess = lip.NewSession(ctx, fork)
			// The fork carries the doc context; only the question needs
			// model computation.
			if _, err := sess.Prefill(req.Query); err != nil {
				return err
			}
		} else {
			f, err := ctx.KvAnon()
			if err != nil {
				return err
			}
			defer f.Remove()
			sess = lip.NewSession(ctx, f)
			if _, err := sess.Prefill(c.docs[req.Topic] + req.Query); err != nil {
				return err
			}
		}
		res, err := lip.Generate(sess, lip.GenOptions{MaxTokens: req.MaxGen})
		if err != nil {
			return err
		}
		ctx.EmitTokens(res.Tokens)
		*generated = len(res.Tokens)
		*decoded = len(res.Tokens)
		if _, held := sess.Pending(); held {
			*decoded-- // the file is removed before a pred reads past it
		}
		return nil
	}
}

func (c *fig3Cell) runSymphony(rate, pareto float64) Fig3Point {
	k := newKernel(c.clk, func(kc *core.Config) {
		kc.FS = c.fsConfig(model.A100Llama13B().KVBytesPerToken)
		// Executor policy held equal with the run-to-completion
		// baselines: Figure 3 isolates program-level caching and
		// batching, not the scheduler (-exp slo studies that).
		kc.PriorityPolicy = sched.FIFO{}
		kc.Tokenizer = c.tok
	})
	runSymphonyTrace(c, k)
	st := k.Stats()
	hit := 0.0
	// Reuse fraction: tokens the forked doc prefixes saved, relative to
	// what a cache-less server would have prefetched.
	total := int64(0)
	for _, req := range c.trace {
		total += int64(len(c.tok.Encode(c.docs[req.Topic] + req.Query)))
	}
	if total > 0 {
		saved := total - st.PredTokens + c.decoded
		if saved > 0 {
			hit = float64(saved) / float64(total)
		}
	}
	return c.point(SystemSymphony, rate, pareto, hit, st.Sched.Utilization)
}

// --- baseline driver ---

func (c *fig3Cell) runBaseline(sys string, rate, pareto float64) Fig3Point {
	srv := newBaseline(c.clk, sys, func(bc *baseline.Config) {
		bc.FS = c.fsConfig(bc.Model.Config().Cost.KVBytesPerToken)
	})
	client := baseline.NewClient(c.link, srv)
	// The client-side RAG application: fetch the document locally, ship
	// document+question as the prompt (the paper's §2 workflow).
	prompts := make([][]token.ID, len(c.trace))
	for i, req := range c.trace {
		prompts[i] = c.tok.Encode(c.docs[req.Topic] + req.Query)
	}
	c.replay(func(i int, req workload.RAGRequest) {
		resp, err := client.CompleteTokens(prompts[i], req.MaxGen)
		if err != nil {
			c.failed.Inc()
			return
		}
		c.record(req.Arrive, len(resp.Tokens))
	})
	st := srv.Stats()
	return c.point(sys, rate, pareto, st.CacheHitRate, st.Sched.Utilization)
}

// Fig3Tables renders the two panels of Figure 3 as tables: normalized mean
// E2E latency per generated token, and throughput, for every (rate,
// Pareto) cell and system. Values are normalized within each cell group
// against the TGI baseline, mirroring the paper's normalized axes.
func Fig3Tables(points []Fig3Point) (latency, throughput metrics.Table) {
	latency = metrics.Table{
		Title:   "Figure 3 (left): mean E2E latency per generated token",
		Headers: []string{"pareto", "rate", "system", "lat/token", "norm-vs-tgi", "p99-req", "hit", "gpu-busy", "failed"},
	}
	throughput = metrics.Table{
		Title:   "Figure 3 (right): throughput",
		Headers: []string{"pareto", "rate", "system", "req/s", "norm-vs-tgi", "requests"},
	}
	// Index TGI reference values per cell.
	type cell struct{ rate, pareto float64 }
	ref := map[cell]Fig3Point{}
	for _, p := range points {
		if p.System == SystemTGI {
			ref[cell{p.Rate, p.Pareto}] = p
		}
	}
	for _, p := range points {
		r, hasRef := ref[cell{p.Rate, p.Pareto}]
		normLat, normThr := "-", "-"
		if hasRef && r.LatPerTok > 0 && p.LatPerTok > 0 {
			normLat = fmt.Sprintf("%.3f", float64(p.LatPerTok)/float64(r.LatPerTok))
		}
		if hasRef && r.Throughput > 0 {
			normThr = fmt.Sprintf("%.3f", p.Throughput/r.Throughput)
		}
		latency.AddRow(p.Pareto, p.Rate, p.System, p.LatPerTok, normLat,
			p.P99Latency, fmt.Sprintf("%.2f", p.CacheHit), fmt.Sprintf("%.2f", p.GPUBusy), p.Failed)
		throughput.AddRow(p.Pareto, p.Rate, p.System, fmt.Sprintf("%.2f", p.Throughput), normThr, p.Requests)
	}
	return latency, throughput
}
