package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// SpecdecConfig parameterizes the executor-level speculative-decoding
// sweep: a decode-heavy mixed population (interactive clients with short
// prefills and short decode runs; batch clients with a chunky prefill
// followed by a long decode run) served three ways over identical work:
//
//   - fifo: the unchunked run-to-completion executor — prefills are
//     monolithic steps, decode advances one token per iteration.
//   - lanes: iteration-level lanes, whose quantum slices each prefill —
//     latency improves, but decode throughput is still pinned at one
//     token per sequence per iteration.
//   - lanes+spec: the same kernel with Config.Spec — each iteration
//     drafts a window on the cheap model and verifies it inside the
//     call's own step, so accepted run lengths multiply per-step decode
//     throughput.
//
// The figures of merit are aggregate token throughput (the spec cell's
// headline) and interactive p99 queue delay (which speculation must not
// regress).
type SpecdecConfig struct {
	// GPUs is the replica count of each cell's kernel.
	GPUs int
	// Interactive population, as in SLOConfig.
	InteractiveClients  int
	InteractiveRequests int
	InteractivePrefill  int
	InteractiveDecode   int
	Think               time.Duration
	// Batch population: decode-heavy — Decode is the long generation the
	// speculative executor accelerates.
	BatchClients  int
	BatchRequests int
	BatchPrefill  int
	BatchDecode   int
	// Lanes knobs for the non-fifo cells (see SLOConfig).
	Quantum    int
	StepTokens int
	AgeAfter   time.Duration
	// Seed offsets the deterministic workload streams (see seedBase).
	Seed int64
}

// DefaultSpecdec returns the sweep used by symphony-bench -exp specdec.
func DefaultSpecdec() SpecdecConfig {
	return SpecdecConfig{
		GPUs:                1,
		InteractiveClients:  8,
		InteractiveRequests: 10,
		InteractivePrefill:  24,
		InteractiveDecode:   8,
		Think:               40 * time.Millisecond,
		BatchClients:        6,
		BatchRequests:       3,
		BatchPrefill:        512,
		BatchDecode:         1024,
		Quantum:             96,
		StepTokens:          512,
		AgeAfter:            250 * time.Millisecond,
		Seed:                1,
	}
}

// QuickSpecdec returns a reduced sweep for -quick and the test suite.
func QuickSpecdec() SpecdecConfig {
	cfg := DefaultSpecdec()
	cfg.InteractiveRequests = 6
	cfg.BatchRequests = 2
	cfg.BatchPrefill = 256
	cfg.BatchDecode = 512
	return cfg
}

// SpecdecPoint is one cell's measurement. Policy ("fifo", "lanes",
// "lanes+spec") identifies the cell.
type SpecdecPoint struct {
	Policy string
	GPUs   int
	// Completed counts client processes that finished every request;
	// Errors everything else.
	Completed int
	Errors    int
	Makespan  time.Duration
	// Throughput is virtual pred tokens per second over the makespan;
	// ThroughputSpeedup is this row's throughput over the fifo
	// baseline's (1 for the baseline itself).
	Throughput        float64
	ThroughputSpeedup float64
	PredTokens        int64
	// Interactive queue delay (as in SLOPoint): speculation must not buy
	// throughput by parking the latency-sensitive lane. It is one sample
	// per advance, and a speculated advance retires several tokens.
	InteractiveP50 time.Duration
	InteractiveP99 time.Duration
	// Interactive decode time per token: each interactive request's
	// decode run, from its prefill's return to the run's, over its
	// tokens. This is the lane's latency per token, speculated or not.
	InteractiveTokenP50 time.Duration
	InteractiveTokenP99 time.Duration
	// Speculation counters from the scheduler ledger: rounds run, tokens
	// drafted, tokens accepted, and the resulting acceptance rate.
	SpecRounds   int64
	SpecDrafted  int64
	SpecAccepted int64
	AcceptRate   float64
	Preemptions  int64
	AvgBatch     float64
}

// RunSpecdec sweeps the three executor configurations over the
// decode-heavy workload.
func RunSpecdec(cfg SpecdecConfig) []SpecdecPoint {
	pts := []SpecdecPoint{
		runSpecdecCell(cfg, "fifo", false),
		runSpecdecCell(cfg, "lanes", false),
		runSpecdecCell(cfg, "lanes+spec", true),
	}
	normalize(pts, func(_, q *SpecdecPoint) bool { return q.Policy == "fifo" },
		func(p, base *SpecdecPoint) { p.ThroughputSpeedup = ratio(p.Throughput, base.Throughput) })
	return pts
}

// runSpecdecCell measures one executor configuration.
func runSpecdecCell(cfg SpecdecConfig, cell string, spec bool) SpecdecPoint {
	policy := "lanes"
	if cell == "fifo" {
		policy = "fifo"
	}
	c := newCell(simclock.New(), func(kc *core.Config) {
		kc.PriorityPolicy = lanePolicy(policy, cfg.Quantum, cfg.StepTokens, cfg.AgeAfter)
		if spec {
			kc.Spec = &core.SpecConfig{Draft: "draft-1b"}
		}
		kc.Replicas = cfg.GPUs
		kc.Dispatcher = sched.LeastLoaded{}
	})
	var perToken *metrics.Histogram
	c.run(func() {
		perToken = c.mixedLoad(
			clientClass{cfg.InteractiveClients, cfg.InteractiveRequests, cfg.InteractivePrefill, cfg.InteractiveDecode},
			clientClass{cfg.BatchClients, cfg.BatchRequests, cfg.BatchPrefill, cfg.BatchDecode},
			cfg.Think, seedBase(cfg.Seed))
	})

	st := c.k.Stats()
	inter := laneStats(st.Sched, "interactive")
	pt := SpecdecPoint{
		Policy:              cell,
		GPUs:                cfg.GPUs,
		Completed:           c.procs.completed,
		Errors:              c.procs.failed(),
		Makespan:            c.procs.last,
		Throughput:          perSecond(st.PredTokens, c.procs.last),
		PredTokens:          st.PredTokens,
		InteractiveP50:      inter.DelayP50,
		InteractiveP99:      inter.DelayP99,
		InteractiveTokenP50: perToken.Quantile(0.50),
		InteractiveTokenP99: perToken.Quantile(0.99),
		SpecRounds:          st.Sched.SpecRounds,
		SpecDrafted:         st.Sched.SpecDrafted,
		SpecAccepted:        st.Sched.SpecAccepted,
		Preemptions:         st.Sched.Preemptions,
		AvgBatch:            st.Sched.AvgBatch,
	}
	if pt.SpecDrafted > 0 {
		pt.AcceptRate = float64(pt.SpecAccepted) / float64(pt.SpecDrafted)
	}
	return pt
}

// SpecdecTable renders the sweep.
func SpecdecTable(points []SpecdecPoint) metrics.Table {
	t := metrics.Table{
		Title: "specdec: executor-level speculative decoding over a decode-heavy mixed load",
		Headers: []string{"cell", "done", "tok/s", "speedup", "inter-p50", "inter-p99",
			"inter-tok-p50", "inter-tok-p99", "rounds", "drafted", "accepted", "acc-rate", "preempt", "avg-batch"},
	}
	for _, p := range points {
		t.AddRow(p.Policy, fmt.Sprintf("%d/%d", p.Completed, p.Completed+p.Errors),
			fmt.Sprintf("%.0f", p.Throughput), fmt.Sprintf("%.2fx", p.ThroughputSpeedup),
			p.InteractiveP50.Round(time.Microsecond), p.InteractiveP99.Round(time.Microsecond),
			p.InteractiveTokenP50.Round(time.Microsecond), p.InteractiveTokenP99.Round(time.Microsecond),
			p.SpecRounds, p.SpecDrafted, p.SpecAccepted, fmt.Sprintf("%.2f", p.AcceptRate),
			p.Preemptions, fmt.Sprintf("%.1f", p.AvgBatch))
	}
	return t
}
