package experiments

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/workload"
)

// footprint estimates a request's peak KV demand in tokens: popular
// topics run on a copy-on-write fork of the pinned document (only the
// question, the answer, and COW slack are new); everything else prefills
// the document from scratch.
func (c *fig3Cell) footprint(req workload.RAGRequest) int {
	page := 16
	n := len(c.tok.Encode(req.Query)) + req.MaxGen + 4*page
	if req.Topic >= c.cfg.PinTop {
		n += len(c.tok.Encode(c.docs[req.Topic])) + page
	}
	return n
}

// runSymphonyTrace replays the cell's RAG trace against an already-built
// kernel. The application's own admission gate, a FIFO semaphore over KV
// tokens like the baselines' server-side one, reserves each request's true
// footprint (a popular-topic request needs ~100 tokens, an uncached one
// ~3,100; more than the whole gate is clamped so it can run alone) before
// its program is submitted. The pinned documents and some builder headroom
// are carved out of the gate's capacity up front. Every allocating KV
// syscall waits at the kernel's own space gate, so the programs would not
// deadlock without this one; it stays because it decides the in-flight
// set the recorded Figure 3 grid measures (docs/EXPERIMENTS.md, "Why
// fig3's harness gate still stands").
func runSymphonyTrace(c *fig3Cell, k *core.Kernel) {
	gpuTokens := int(c.cfg.GPUBytes / model.A100Llama13B().KVBytesPerToken)
	pinned := 0
	for t := 0; t < c.cfg.PinTop && t < len(c.docs); t++ {
		pinned += len(c.tok.Encode(c.docs[t])) + 16
	}
	capacity := gpuTokens - pinned - 512
	if capacity < 4096 {
		capacity = 4096
	}
	gate := c.clk.NewSemaphore(capacity)
	c.replay(func(_ int, req workload.RAGRequest) {
		if err := c.link.OneWay(2048 + len(req.Query)); err != nil {
			return
		}
		need := min(c.footprint(req), capacity)
		if err := gate.Acquire(need); err != nil {
			c.failed.Inc()
			return
		}
		defer gate.Release(need)
		generated, decoded := 0, 0
		p := k.Submit("rag", c.ragProgram(req, &generated, &decoded))
		err := p.Wait()
		if err == nil {
			err = c.link.OneWay(len(p.Output()))
		}
		if err != nil {
			c.failed.Inc()
			return
		}
		c.record(req.Arrive, generated)
		c.decoded += int64(decoded)
	})
}

// OverheadConfig parameterizes ablation A2 (§6 "performance overhead"):
// plain text completion with zero reuse, where programmability buys
// nothing and Symphony should pay only a small constant over a
// prompt-serving system.
type OverheadConfig struct {
	Requests     int
	Rate         float64
	PromptTokens int
	GenTokens    int
}

// DefaultOverhead returns the A2 configuration.
func DefaultOverhead() OverheadConfig {
	return OverheadConfig{Requests: 40, Rate: 2, PromptTokens: 200, GenTokens: 32}
}

// OverheadPoint is one system's measurement.
type OverheadPoint struct {
	System      string
	MeanLatency time.Duration
	Ratio       float64 // vs vLLM-sim
}

// RunOverhead runs A2: identical vanilla completions through Symphony and
// vLLM-sim (its cache is useless here: every prompt is distinct).
func RunOverhead(cfg OverheadConfig) []OverheadPoint {
	arrivals := func() []time.Duration {
		p := workload.NewPoisson(cfg.Rate)
		rng := newRand(42)
		var t time.Duration
		out := make([]time.Duration, cfg.Requests)
		for i := range out {
			t += p.NextGap(rng)
			out[i] = t
		}
		return out
	}()
	prompts := make([]string, cfg.Requests)
	for i := range prompts {
		prompts[i] = syntheticPrompt(cfg.PromptTokens/2, 5000+i)
	}

	run := func(sys string) OverheadPoint {
		clk := simclock.New()
		tok := token.NewTokenizer(token.NewVocab())
		var complete func(i int) error
		if sys == SystemSymphony {
			k := newKernel(clk, func(kc *core.Config) { kc.Tokenizer = tok })
			complete = func(i int) error {
				return k.Submit("plain", completion(prompts[i], cfg.GenTokens)).Wait()
			}
		} else {
			srv := newBaseline(clk, sys, nil)
			complete = func(i int) error {
				_, err := srv.Complete(baseline.Request{Prompt: tok.Encode(prompts[i]), MaxTokens: cfg.GenTokens})
				return err
			}
		}
		lat := metrics.NewHistogram()
		openLoop(clk, len(arrivals), func(i int) time.Duration { return arrivals[i] }, func(i int) {
			start := clk.Now()
			if complete(i) == nil {
				lat.Add(clk.Now() - start)
			}
		})
		return OverheadPoint{System: sys, MeanLatency: lat.Mean()}
	}
	vllm := run(SystemVLLM)
	sym := run(SystemSymphony)
	if vllm.MeanLatency > 0 {
		sym.Ratio = float64(sym.MeanLatency) / float64(vllm.MeanLatency)
		vllm.Ratio = 1
	}
	return []OverheadPoint{sym, vllm}
}

// OverheadTable renders A2.
func OverheadTable(points []OverheadPoint) metrics.Table {
	t := metrics.Table{
		Title:   "A2 (§6): Symphony overhead on vanilla completion (no reuse)",
		Headers: []string{"system", "mean-latency", "ratio-vs-vllm"},
	}
	for _, p := range points {
		t.AddRow(p.System, p.MeanLatency, p.Ratio)
	}
	return t
}
