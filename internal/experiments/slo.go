package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// SLOConfig parameterizes the priority-scheduling sweep: a mixed
// population of latency-sensitive interactive clients (short prefill +
// short decode, think time between requests) and saturating batch clients
// (a long prefill followed by a long decode, back to back), run once per
// priority policy over identical work.
//
// Under the fifo run-to-completion baseline, every batch prefill is one
// monolithic GPU step — hundreds of milliseconds during which an
// interactive call queued behind it can only wait. Under the lanes policy
// the same prefill is sliced to the step quantum, interactive calls join
// the very next iteration, and the step-token budget preempts mid-flight
// batch slices whenever the interactive lane is occupied, while aging
// guarantees the batch lane still drains. The figures of merit are the
// per-lane queue-delay distributions at matched aggregate throughput.
type SLOConfig struct {
	// Policies lists the priority policies to sweep (see
	// sched.PriorityPolicyNames); the first fifo row is the baseline
	// other rows are compared against.
	Policies []string
	// GPUs is the replica count of each cell's kernel.
	GPUs int
	// Interactive population: Clients issue Requests requests each of
	// Prefill prompt tokens and Decode generated tokens, thinking Think
	// between requests.
	InteractiveClients  int
	InteractiveRequests int
	InteractivePrefill  int
	InteractiveDecode   int
	Think               time.Duration
	// Batch population: Clients issue Requests requests each of Prefill
	// prompt tokens (the head-of-line hazard) and Decode generated
	// tokens, no think time.
	BatchClients  int
	BatchRequests int
	BatchPrefill  int
	BatchDecode   int
	// Quantum is the lanes policy's per-call step quantum; StepTokens its
	// per-iteration token budget (what makes preemption real); AgeAfter
	// its lane-promotion interval.
	Quantum    int
	StepTokens int
	AgeAfter   time.Duration
	// StarveAfter is the queue delay above which a batch advance counts as
	// starved; the acceptance bar is zero starved advances.
	StarveAfter time.Duration
	// HeavyPrefill, when positive, adds a second sweep mode: the same
	// mixed population but with batch prefills this large — the
	// head-of-line hazard chunked prefill exists to defuse. The heavy
	// cells compare fifo, fifo sliced to HeavyChunk (Sarathi-style
	// slicing with no priority lanes at all), and lanes.
	HeavyPrefill int
	// HeavyChunk is the sched.FIFO.SliceTokens of the heavy fifo+chunk
	// cell.
	HeavyChunk int
	// Seed offsets the deterministic workload streams (see seedBase); 0
	// and 1 both select the recorded baseline.
	Seed int64
}

// DefaultSLO returns the sweep used by symphony-bench -exp slo.
func DefaultSLO() SLOConfig {
	return SLOConfig{
		Policies:            []string{"fifo", "lanes"},
		GPUs:                1,
		InteractiveClients:  8,
		InteractiveRequests: 10,
		InteractivePrefill:  24,
		InteractiveDecode:   8,
		Think:               40 * time.Millisecond,
		BatchClients:        6,
		BatchRequests:       3,
		BatchPrefill:        1024,
		BatchDecode:         96,
		Quantum:             96,
		StepTokens:          512,
		AgeAfter:            250 * time.Millisecond,
		StarveAfter:         3 * time.Second,
		HeavyPrefill:        4096,
		HeavyChunk:          256,
		Seed:                1,
	}
}

// QuickSLO returns a reduced sweep for -quick and the test suite.
func QuickSLO() SLOConfig {
	cfg := DefaultSLO()
	cfg.InteractiveRequests = 6
	cfg.BatchRequests = 2
	cfg.BatchDecode = 64
	cfg.HeavyPrefill = 2048
	return cfg
}

// SLOPoint is one cell's measurement. Mode is "mixed" for the standard
// sweep and "heavy" for the HeavyPrefill cells; Policy is the cell label
// ("fifo", "fifo+chunk", "lanes") — together they identify the cell.
type SLOPoint struct {
	Mode   string
	Policy string
	GPUs   int
	// Chunk is the fifo slice bound the cell ran with
	// (sched.FIFO.SliceTokens; 0 = unsliced).
	Chunk int
	// Completed counts client processes that finished every request;
	// Errors everything else.
	Completed int
	Errors    int
	Makespan  time.Duration
	// Throughput is virtual pred tokens per second over the makespan —
	// the equal-work axis policies are compared at.
	Throughput float64
	PredTokens int64
	// Per-lane queue delay, one sample per advance (sched.LaneStats): the
	// time since the call's previous advance ended minus this advance's
	// solo cost — the wait other calls' work (and preemption) inserted,
	// not time-to-first-token.
	InteractiveP50 time.Duration
	InteractiveP99 time.Duration
	BatchP50       time.Duration
	BatchP99       time.Duration
	BatchMax       time.Duration
	// InteractiveP99Speedup is the same-mode fifo baseline's interactive
	// p99 over this row's (1 for the baseline itself; higher is better).
	InteractiveP99Speedup float64
	// Preemptions counts iteration-boundary preemptions; Starved counts
	// batch advances whose queue delay exceeded StarveAfter. That is what
	// aging bounds — the wait between two advances of one call, not a
	// call's whole sojourn — and it must stay zero in every lanes cell.
	Preemptions int64
	Starved     int64
	AvgBatch    float64
}

// RunSLO sweeps the priority policies over the mixed workload, then —
// when HeavyPrefill is set — the heavy-prefill cells that isolate what
// chunked prefill alone buys.
func RunSLO(cfg SLOConfig) []SLOPoint {
	var out []SLOPoint
	for _, policy := range cfg.Policies {
		out = append(out, runSLOCell(cfg, "mixed", policy, policy, cfg.BatchPrefill, 0))
	}
	if cfg.HeavyPrefill > 0 {
		out = append(out,
			runSLOCell(cfg, "heavy", "fifo", "fifo", cfg.HeavyPrefill, 0),
			runSLOCell(cfg, "heavy", "fifo+chunk", "fifo", cfg.HeavyPrefill, cfg.HeavyChunk),
			runSLOCell(cfg, "heavy", "lanes", "lanes", cfg.HeavyPrefill, 0),
		)
	}
	// Interactive p99 speedup is relative to the same mode's fifo row.
	normalize(out, func(p, q *SLOPoint) bool { return q.Policy == "fifo" && q.Mode == p.Mode },
		func(p, base *SLOPoint) { p.InteractiveP99Speedup = ratio(base.InteractiveP99, p.InteractiveP99) })
	return out
}

// runSLOCell measures one cell: a priority policy (labelled label) over
// the mixed workload with the given batch prefill size; a positive chunk
// runs fifo sliced to it.
func runSLOCell(cfg SLOConfig, mode, label, policy string, batchPrefill, chunk int) SLOPoint {
	prio := lanePolicy(policy, cfg.Quantum, cfg.StepTokens, cfg.AgeAfter)
	if chunk > 0 {
		prio = sched.FIFO{SliceTokens: chunk}
	}
	c := newCell(simclock.New(), func(kc *core.Config) {
		kc.PriorityPolicy = prio
		kc.Replicas = cfg.GPUs
		kc.Dispatcher = sched.LeastLoaded{}
	})
	c.run(func() {
		c.mixedLoad(
			clientClass{cfg.InteractiveClients, cfg.InteractiveRequests, cfg.InteractivePrefill, cfg.InteractiveDecode},
			clientClass{cfg.BatchClients, cfg.BatchRequests, batchPrefill, cfg.BatchDecode},
			cfg.Think, seedBase(cfg.Seed))
	})

	st := c.k.Stats()
	inter, batch := laneStats(st.Sched, "interactive"), laneStats(st.Sched, "batch")
	return SLOPoint{
		Mode:           mode,
		Policy:         label,
		GPUs:           cfg.GPUs,
		Chunk:          chunk,
		Completed:      c.procs.completed,
		Errors:         c.procs.failed(),
		Makespan:       c.procs.last,
		Throughput:     perSecond(st.PredTokens, c.procs.last),
		PredTokens:     st.PredTokens,
		InteractiveP50: inter.DelayP50,
		InteractiveP99: inter.DelayP99,
		BatchP50:       batch.DelayP50,
		BatchP99:       batch.DelayP99,
		BatchMax:       batch.DelayMax,
		Preemptions:    st.Sched.Preemptions,
		Starved:        c.k.Scheduler().LaneDelay(sched.Batch).CountAbove(cfg.StarveAfter),
		AvgBatch:       st.Sched.AvgBatch,
	}
}

// SLOTable renders the sweep.
func SLOTable(points []SLOPoint) metrics.Table {
	t := metrics.Table{
		Title: "SLO (§4.4): per-lane queue delay under iteration-level priority scheduling",
		Headers: []string{"mode", "policy", "done", "tok/s", "inter-p50", "inter-p99", "p99-speedup",
			"batch-p50", "batch-p99", "batch-max", "preempt", "starved", "avg-batch"},
	}
	for _, p := range points {
		t.AddRow(p.Mode, p.Policy, fmt.Sprintf("%d/%d", p.Completed, p.Completed+p.Errors),
			fmt.Sprintf("%.0f", p.Throughput),
			p.InteractiveP50.Round(time.Microsecond), p.InteractiveP99.Round(time.Microsecond),
			fmt.Sprintf("%.1fx", p.InteractiveP99Speedup),
			p.BatchP50.Round(time.Microsecond), p.BatchP99.Round(time.Microsecond),
			p.BatchMax.Round(time.Millisecond),
			p.Preemptions, p.Starved, fmt.Sprintf("%.1f", p.AvgBatch))
	}
	return t
}
