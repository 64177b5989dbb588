// Package baseline implements the prompt-serving systems the paper
// compares Symphony against (§5): a vLLM-like server with continuous
// batching and automatic prefix caching under a server-chosen LRU policy,
// and a TGI-like server with continuous batching only.
//
// Both baselines run on exactly the same substrates as Symphony — the
// simulated model and cost model, the paged KV allocator, and the batch
// scheduler — so measured differences isolate the serving architecture:
// who controls the cache policy and where the application logic runs.
// Their unit of service is a prompt: a stateless request carrying the full
// context, answered with generated tokens.
package baseline

import (
	"errors"

	"repro/internal/kvfs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// Request is one text-completion call.
type Request struct {
	Prompt    []token.ID
	MaxTokens int
}

// Response reports a completed request.
type Response struct {
	Tokens []token.ID
	// CachedTokens is how much of the prompt prefill was served from the
	// server's prefix cache.
	CachedTokens int
}

// Server is the prompt-serving interface. Complete must be called from a
// simclock actor; it blocks for the request's full service time.
type Server interface {
	Name() string
	Complete(req Request) (Response, error)
	Stats() Stats
}

// Stats is a snapshot of server counters.
type Stats struct {
	Requests     int64
	PromptTokens int64
	CachedTokens int64
	DecodeTokens int64
	Evictions    int64
	CacheHitRate float64
	Sched        sched.Stats
	FS           kvfs.Stats
}

// Config assembles a baseline server.
type Config struct {
	Model *model.Model
	FS    kvfs.Config
}

// engine is the machinery shared by both baselines.
type engine struct {
	clk *simclock.Clock
	mdl *model.Model
	fs  *kvfs.FS
	sch *sched.Scheduler
	// gate queues new requests until their KV tokens fit in GPU memory,
	// as real serving systems do; gateCap is its size.
	gate    *simclock.Semaphore
	gateCap int

	requests     metrics.Counter
	promptTokens metrics.Counter
	cachedTokens metrics.Counter
	decodeTokens metrics.Counter
	evictions    metrics.Counter
}

func newEngine(clk *simclock.Clock, cfg Config) *engine {
	if cfg.Model == nil {
		panic("baseline: nil model")
	}
	fsCfg := cfg.FS
	if fsCfg == (kvfs.Config{}) {
		fsCfg = kvfs.DefaultConfig()
		fsCfg.BytesPerToken = cfg.Model.Config().Cost.KVBytesPerToken
	}
	fs := kvfs.NewFS(fsCfg)
	name := cfg.Model.Name()
	e := &engine{
		clk: clk,
		mdl: cfg.Model,
		fs:  fs,
		sch: sched.New(clk, sched.Config{
			Models: map[string]model.CostModel{name: cfg.Model.Config().Cost},
			// The baselines model run-to-completion servers: no
			// iteration-level slicing, no priority lanes.
			PriorityPolicy: sched.FIFO{},
		}),
	}
	e.gateCap = fs.Stats().GPUPageCap * fs.Config().PageTokens
	e.gate = clk.NewSemaphore(e.gateCap)
	return e
}

var errGateTooBig = errors.New("baseline: request exceeds total KV capacity")

// admit reserves n tokens of KV capacity, queueing behind earlier
// requests. A request larger than the whole GPU tier is refused.
func (e *engine) admit(n int) error {
	if n > e.gateCap {
		return errGateTooBig
	}
	return e.gate.Acquire(n)
}

// pred mirrors the Symphony kernel's pred path for the baselines: append
// tokens to a KV file, charge one batched GPU step, return unbuilt
// distributions (model.Defer). The server-fixed loop reads nothing of them
// but Greedy, which answers those without building.
func (e *engine) pred(f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error) {
	tails, err := f.Append(toks, positions)
	if err != nil {
		return nil, err
	}
	if err := e.sch.SubmitCall(sched.Call{Model: e.mdl.Name(), Tokens: len(toks)}); err != nil {
		return nil, err
	}
	dists := make([]model.Dist, len(tails))
	for i, h := range tails {
		dists[i] = e.mdl.Defer(h)
	}
	return dists, nil
}

// predFn is the forward-pass function decode steps through, letting vLLM
// interpose cache eviction on memory pressure.
type predFn func(f *kvfs.File, toks []token.ID, positions []int) ([]model.Dist, error)

// decode runs the server-fixed greedy generation loop (the paper's §2.3:
// users cannot change this).
func (e *engine) decode(f *kvfs.File, first model.Dist, maxTokens int) ([]token.ID, error) {
	return e.decodeWith(f, first, maxTokens, e.pred)
}

func (e *engine) decodeWith(f *kvfs.File, first model.Dist, maxTokens int, pred predFn) ([]token.ID, error) {
	var out []token.ID
	cur := first.Greedy()
	for len(out) < maxTokens && cur != token.EOS {
		out = append(out, cur)
		d, err := pred(f, []token.ID{cur}, []int{f.Len()})
		if err != nil {
			return out, err
		}
		cur = d[0].Greedy()
	}
	e.decodeTokens.Add(int64(len(out)))
	return out, nil
}

func (e *engine) stats() Stats {
	st := Stats{
		Requests:     e.requests.Value(),
		PromptTokens: e.promptTokens.Value(),
		CachedTokens: e.cachedTokens.Value(),
		DecodeTokens: e.decodeTokens.Value(),
		Evictions:    e.evictions.Value(),
		Sched:        e.sch.Stats(),
		FS:           e.fs.Stats(),
	}
	if st.PromptTokens > 0 {
		st.CacheHitRate = float64(st.CachedTokens) / float64(st.PromptTokens)
	}
	return st
}

// positions returns 0..n-1 offset by base.
func positions(base, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i
	}
	return out
}
