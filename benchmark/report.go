package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/trace"
)

// result is what one invocation on one workload reports. Metrics holds the
// end-to-end metrics of an untraced invocation or the per-layer metrics of
// a traced one; Info carries what -selfcheck compares beyond them.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]string  `json:"info"`
	Problems  []string           `json:"problems,omitempty"`
	// notes are printed next to a metric: its clock and sample count.
	notes map[string]string
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: traced, Correct: true,
		Metrics: map[string]float64{}, Info: map[string]string{}, notes: map[string]string{}}
}

func (r *result) fail(problems ...string) {
	if len(problems) > 0 {
		r.Correct = false
		r.Problems = append(r.Problems, problems...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies are the three request timings of one population, in ms.
type latencies struct{ ttft, tpot, e2e []float64 }

// kernelLatencies collects the measured, completed requests' timings, each
// from the lane the workload reads it on.
func kernelLatencies(run *kernelRun) latencies {
	var l latencies
	for i := range run.results {
		r := &run.results[i]
		if !r.measured || !r.ok() {
			continue
		}
		if run.spec.ttftLane == "" || r.req.lane == run.spec.ttftLane {
			l.ttft = append(l.ttft, ms(r.ttft()))
			if d, ok := r.tpot(); ok {
				l.tpot = append(l.tpot, ms(d))
			}
		}
		if run.spec.e2eLane == "" || r.req.lane == run.spec.e2eLane {
			l.e2e = append(l.e2e, ms(r.final-r.due))
		}
	}
	return l
}

// putTiming records a timing's median and tail under name_p50_ms and
// name_tail_ms.
func (r *result) putTiming(name string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name+"_p50_ms"], r.Metrics[name+"_tail_ms"] = s.P50, s.Tail
	r.notes[name+"_p50_ms"] = fmt.Sprintf("n=%d", s.N)
	r.notes[name+"_tail_ms"] = fmt.Sprintf("p%g of n=%d", s.TailPct*100, s.N)
}

// kernelCounts tallies a run's generator ledger.
type kernelCounts struct {
	sent, ok, failed, refused int
	measuredOK                int
	promptTokens              int64
}

func countKernel(run *kernelRun) kernelCounts {
	var c kernelCounts
	for i := range run.results {
		r := &run.results[i]
		switch {
		case r.refused:
			c.refused++
		case r.ok():
			c.sent++
			c.ok++
			c.promptTokens += int64(r.req.prompt)
			if r.measured {
				c.measuredOK++
			}
		default:
			c.sent++
			c.failed++
			c.promptTokens += int64(r.req.prompt)
		}
	}
	return c
}

// virtualThroughput is completed measured requests over the virtual time
// from the first measured arrival to the last completion.
func virtualThroughput(run *kernelRun) float64 {
	var first, last time.Duration
	n := 0
	for i := range run.results {
		r := &run.results[i]
		if !r.measured || !r.ok() {
			continue
		}
		if n == 0 || r.due < first {
			first = r.due
		}
		if r.final > last {
			last = r.final
		}
		n++
	}
	if last <= first {
		return 0
	}
	return float64(n) / (last - first).Seconds()
}

// outcomes turns a run's measured requests into what the SLO logic reads;
// the latency limits apply to the TTFT lane's population.
func outcomes(run *kernelRun) []outcome {
	var out []outcome
	for i := range run.results {
		r := &run.results[i]
		if !r.measured || (run.spec.ttftLane != "" && r.req.lane != run.spec.ttftLane) {
			continue
		}
		o := outcome{OK: r.ok()}
		if o.OK {
			o.TTFTms = ms(r.ttft())
			if d, ok := r.tpot(); ok {
				o.TPOTms = ms(d)
			}
		}
		out = append(out, o)
	}
	return out
}

// kernelEndToEnd fills the end-to-end metrics from the repetitions of the
// primary configuration: virtual metrics from the first (all repetitions
// agree bit for bit, which the caller has checked), host throughput as the
// median repetition's, set-up as the median of setup; both host clocks are in
// reference seconds.
func kernelEndToEnd(res *result, reps []*kernelRun, setup []float64) {
	first := reps[0]
	l := kernelLatencies(first)
	res.putTiming("v_ttft", l.ttft)
	res.putTiming("v_tpot", l.tpot)
	res.putTiming("v_e2e", l.e2e)
	res.Metrics["v_throughput_rps"] = virtualThroughput(first)

	var rps, wallRPS, speeds, allocs []float64
	for _, run := range reps {
		if n := float64(countKernel(run).measuredOK); n > 0 {
			rps = append(rps, n/run.hostSeconds())
			wallRPS = append(wallRPS, n/run.measured.wall.Seconds())
			allocs = append(allocs, float64(run.measured.mallocs)/n)
		}
		speeds = append(speeds, run.hostRef.timing().speed())
	}
	res.Metrics["host_req_per_ref_s"] = median(rps)
	res.Metrics["setup_s"] = median(setup)
	res.notes["host_req_per_ref_s"] = fmt.Sprintf("median of %d repetitions", len(reps))
	res.notes["setup_s"] = fmt.Sprintf("generation + kernel construction + warm-up in reference seconds, median of %d", len(setup))
	res.Info["req_per_wall_s"] = fmt.Sprintf("%.3f", median(wallRPS))
	res.Info["ref_units_per_s"] = fmt.Sprintf("%.0f", median(speeds))
	res.Info["allocs_per_req"] = fmt.Sprintf("%.1f", median(allocs))
}

// rungOf summarises one open-loop run for the SLO ladder.
func rungOf(run *kernelRun, name string) rung {
	return rung{
		Name: name, Rate: run.rate,
		Share:    sloShare(outcomes(run), run.spec.slo),
		Backlog:  backlogRatio(run.inflight),
		TTFTTail: summarize(kernelLatencies(run).ttft).Tail,
	}
}

// gcCPUShare reads the share of the process's CPU time the collector used.
func gcCPUShare() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 || s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}

// kernelLayers fills the per-layer metrics of a kernel workload from an
// untraced run at the primary rate, a traced run with its span count, and
// the SLO ladder.
func kernelLayers(res *result, base, traced *kernelRun, tracedSpans int, rungs []rung) {
	m := res.Metrics
	st := base.stats
	c := countKernel(base)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["core.processes"] = float64(st.Processes)
	m["core.pred_calls"] = float64(st.PredCalls)
	m["core.pred_tokens"] = float64(st.PredTokens)
	m["core.kv_calls"] = float64(st.KVCalls)
	m["core.tool_calls"] = float64(st.ToolCalls)
	m["core.restore_ms_per_req"] = ratio(ms(st.RestoreTime), float64(c.sent))
	pc := st.PrefixCache
	m["core.prefix_hit_share"] = ratio(float64(pc.Hits), float64(pc.Lookups))
	m["core.prefix_token_share"] = ratio(float64(pc.HitTokens), float64(c.promptTokens))
	m["core.prefix_saved_prefill_s"] = pc.SavedPrefill.Seconds()
	m["core.prefix_nodes"] = float64(pc.Nodes)
	m["core.prefix_evictions"] = float64(pc.Evictions)
	m["core.migrations"] = float64(st.Migration.Migrations)
	m["core.migrate_ms"] = ms(st.Migration.MigrateTime)

	s := st.Sched
	m["sched.steps"] = float64(s.Steps)
	m["sched.batch_calls_avg"] = s.AvgBatch
	m["sched.batch_tokens_avg"] = s.AvgTokens
	m["sched.gpu_busy_share"] = s.Utilization
	m["sched.exec_tokens"] = float64(s.ExecutedTokens)
	m["sched.spec_drafted"] = float64(s.SpecDrafted)
	m["sched.spec_rounds"] = float64(s.SpecRounds)
	m["sched.spec_accept_share"] = ratio(float64(s.SpecAccepted), float64(s.SpecDrafted))
	m["sched.preemptions"] = float64(s.Preemptions)
	m["sched.admit_deferred"] = float64(s.AdmitDeferred)
	m["sched.admit_wait_ms"] = ms(s.AdmitWait)
	for _, lane := range s.Lanes {
		if lane.Lane == "interactive" || lane.Lane == "batch" {
			m["sched."+lane.Lane+".delay_p50_ms"] = ms(lane.DelayP50)
			m["sched."+lane.Lane+".delay_p99_ms"] = ms(lane.DelayP99)
		}
	}
	var minTok, maxTok int64
	for i, r := range s.Replicas {
		if i == 0 || r.Tokens < minTok {
			minTok = r.Tokens
		}
		if r.Tokens > maxTok {
			maxTok = r.Tokens
		}
	}
	m["sched.replica_imbalance"] = ratio(float64(maxTok), float64(minTok))

	k := st.KVD
	m["kvd.reclaims"] = float64(k.Reclaims)
	m["kvd.offloads"] = float64(k.Offloads)
	m["kvd.offloaded_tokens"] = float64(k.OffloadedTokens)
	m["kvd.restores"] = float64(k.Restores)
	m["kvd.restore_cost_ms"] = ms(k.RestoredCost)
	m["kvd.undone_offload_share"] = ratio(float64(k.Restores), float64(k.Offloads))
	m["kvd.swap_restores"] = float64(k.SwapRestores)
	m["kvd.preemptions"] = float64(k.Preemptions)
	m["kvd.spills"] = float64(k.Spills)
	m["kvd.disk_loads"] = float64(k.DiskLoads)
	m["kvd.disk_load_cost_ms"] = ms(k.DiskLoadCost)
	m["kvd.disk_recomputes"] = float64(k.DiskRecomputes)

	f := st.FS
	m["kvfs.gpu_peak_share"] = ratio(float64(f.GPUPeakPages), float64(f.GPUPageCap))
	m["kvfs.forks"] = float64(f.Forks)
	m["kvfs.cow_copies"] = float64(f.COWCopies)
	m["kvfs.shares"] = float64(f.Shares)
	m["kvfs.oom_errors"] = float64(f.OOMErrors)
	m["kvstore.disk_peak_share"] = ratio(float64(f.DiskPeakPages), float64(f.DiskPageCap))

	// The kernel's own spans come from the traced run.
	var predRTT []float64
	var toolWait time.Duration
	for _, e := range traced.tracer.Events() {
		switch e.Kind {
		case trace.KindPred:
			predRTT = append(predRTT, ms(e.Dur))
		case trace.KindTool:
			toolWait += e.Dur
		}
	}
	sort.Float64s(predRTT)
	m["core.pred_rtt_p50_ms"] = quantile(predRTT, 0.50)
	m["core.pred_rtt_p99_ms"] = quantile(predRTT, 0.99)
	tc := countKernel(traced)
	m["core.tool_wait_ms_per_req"] = ratio(ms(toolWait), float64(tc.sent))
	m["trace.spans_per_req"] = ratio(float64(tracedSpans), float64(tc.sent))
	hostPerReq := func(run *kernelRun, n int) float64 { return ratio(run.hostSeconds(), float64(n)) }
	plain := hostPerReq(base, c.measuredOK)
	m["trace.host_overhead_share"] = ratio(hostPerReq(traced, tc.measuredOK)-plain, plain)

	n := float64(c.measuredOK)
	m["host.req_per_wall_s"] = ratio(n, base.measured.wall.Seconds())
	m["host.ref_units_per_s"] = base.hostRef.timing().speed()
	m["host.cpu_s_per_kreq"] = ratio(base.measured.cpu.Seconds()*1000, n)
	m["host.peak_rss_mb"] = procPeakRSSMB(os.Getpid())
	m["host.gc_cycles"] = float64(base.measured.gcs)
	m["host.gc_cpu_share"] = gcCPUShare()
	m["host.allocs_per_req"] = ratio(float64(base.measured.mallocs), n)
	m["host.alloc_kb_per_req"] = ratio(float64(base.measured.bytes)/1024, n)

	m["gen.sent"] = float64(c.sent)
	m["gen.ok"] = float64(c.ok)
	m["gen.failed"] = float64(c.failed)
	m["gen.refused"] = float64(c.refused)
	m["gen.fail_share"] = ratio(float64(c.failed+c.refused), float64(c.sent+c.refused))
	late := append([]float64(nil), base.lateness...)
	sort.Float64s(late)
	m["gen.lateness_p99_ms"] = quantile(late, 0.99)

	for _, r := range rungs {
		m["rung."+r.Name+".v_ttft_tail_ms"] = r.TTFTTail
		m["rung."+r.Name+".slo_share"] = r.Share
		m["rung."+r.Name+".backlog_ratio"] = r.Backlog
		if r.Name == base.spec.rates[base.spec.primary].Name {
			m["slo.v_goodput_rps"] = r.Share * r.Rate
		}
	}
	m["slo.v_rate_rps"] = sloRate(rungs)
}
