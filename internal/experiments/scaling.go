package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
)

// ScalingConfig parameterizes the multi-GPU scaling sweep: a closed-loop
// population of clients issuing completion programs back-to-back against
// kernels with increasing replica counts. Closed-loop load saturates
// whatever replica count is offered (every client always has a request in
// flight) while keeping in-flight KV bounded, so throughput measures the
// scheduler's ability to spread work, not the arrival process.
type ScalingConfig struct {
	// Replicas lists the GPU replica counts to sweep.
	Replicas []int
	// Dispatcher names the dispatch policy (see sched.NewDispatcher);
	// empty means round-robin. The sweep runs least-loaded, and
	// TestScalingDispatcherVariants holds the others to the scaling bar.
	Dispatcher string
	// Clients is the closed-loop population size.
	Clients int
	// RequestsPerClient is how many completions each client runs.
	RequestsPerClient int
	// PrefillTokens and DecodeTokens shape each request.
	PrefillTokens int
	DecodeTokens  int
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultScaling returns the sweep used by symphony-bench -exp scaling.
func DefaultScaling() ScalingConfig {
	return ScalingConfig{
		Replicas:          []int{1, 2, 4, 8},
		Dispatcher:        "least-loaded",
		Clients:           96,
		RequestsPerClient: 4,
		PrefillTokens:     256,
		DecodeTokens:      24,
		Seed:              1,
	}
}

// QuickScaling returns a reduced sweep for -quick and the test suite.
func QuickScaling() ScalingConfig {
	c := DefaultScaling()
	c.Replicas = []int{1, 4}
	c.Clients = 64
	c.RequestsPerClient = 2
	c.PrefillTokens = 192
	c.DecodeTokens = 16
	return c
}

// ScalingPoint is one replica count's measurement.
type ScalingPoint struct {
	Replicas    int
	Dispatcher  string
	Completed   int
	Makespan    time.Duration
	Throughput  float64 // virtual req/s
	Speedup     float64 // vs the 1-replica row (1 when absent)
	MeanLatency time.Duration
	P99Latency  time.Duration
	AvgBatch    float64
	UtilMean    float64 // mean per-replica utilization
	UtilMin     float64 // least-loaded replica (balance check)
	UtilMax     float64 // most-loaded replica
}

// RunScaling sweeps replica counts under saturating closed-loop load.
func RunScaling(cfg ScalingConfig) []ScalingPoint {
	var out []ScalingPoint
	for _, n := range cfg.Replicas {
		out = append(out, runScalingCell(cfg, n))
	}
	// Speedup is relative to the first 1-replica row, if the sweep has one.
	normalize(out, func(_, q *ScalingPoint) bool { return q.Replicas == 1 },
		func(p, base *ScalingPoint) { p.Speedup = ratio(p.Throughput, base.Throughput) })
	return out
}

// runScalingCell measures one replica count.
func runScalingCell(cfg ScalingConfig, replicas int) ScalingPoint {
	dispatcher, err := sched.NewDispatcher(cfg.Dispatcher)
	if err != nil {
		panic(err)
	}
	clk := simclock.New()
	c := newCell(clk, func(kc *core.Config) {
		kc.Replicas = replicas
		kc.Dispatcher = dispatcher
		kc.Tokenizer = token.NewTokenizer(token.NewVocab())
	})

	lat := metrics.NewHistogram()
	c.run(func() {
		for i := 0; i < cfg.Clients; i++ {
			c.spawn(fmt.Sprintf("client-%d", i), func() {
				for r := 0; r < cfg.RequestsPerClient; r++ {
					prompt := syntheticPrompt(cfg.PrefillTokens/2, seedBase(cfg.Seed)+1_000_000+i*1000+r)
					start := clk.Now()
					err := c.k.Submit("scaling", completion(prompt, cfg.DecodeTokens)).Wait()
					now := clk.Now()
					c.reqs.note(now, err)
					if err == nil {
						lat.Add(now - start)
					}
				}
			})
		}
	})

	st := c.k.Stats().Sched
	pt := ScalingPoint{
		Replicas:    replicas,
		Dispatcher:  st.Dispatcher,
		Completed:   c.reqs.completed,
		Makespan:    c.reqs.last,
		Throughput:  perSecond(c.reqs.completed, c.reqs.last),
		MeanLatency: lat.Mean(),
		P99Latency:  lat.Quantile(0.99),
		AvgBatch:    st.AvgBatch,
		UtilMean:    st.Utilization,
	}
	pt.UtilMin, pt.UtilMax = utilSpread(st.Replicas)
	return pt
}

// ScalingTable renders the sweep.
func ScalingTable(points []ScalingPoint) metrics.Table {
	t := metrics.Table{
		Title:   "S1 (§4.4): batch-scheduler throughput scaling across GPU replicas",
		Headers: []string{"gpus", "dispatch", "req/s", "speedup", "mean-req", "p99-req", "avg-batch", "util-mean", "util-min", "util-max"},
	}
	for _, p := range points {
		t.AddRow(p.Replicas, p.Dispatcher,
			fmt.Sprintf("%.2f", p.Throughput), fmt.Sprintf("%.2fx", p.Speedup),
			p.MeanLatency, p.P99Latency, p.AvgBatch,
			fmt.Sprintf("%.2f", p.UtilMean), fmt.Sprintf("%.2f", p.UtilMin), fmt.Sprintf("%.2f", p.UtilMax))
	}
	return t
}
