package main

import (
	"fmt"
	"sort"
	"time"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// daemonEndToEnd fills the end-to-end metrics, each computed per segment —
// one daemon, one virtual clock — with the median segment reported. The tail
// percentile is the one the run's whole sample supports: on the daemon's
// virtual clock latencies sit on a few discrete levels one GPU step apart,
// and the median of three segment tails stays on the level most segments
// agree on where a pooled percentile slides between levels.
func daemonEndToEnd(res *result, run *daemonRun) {
	segs := make([]latencies, len(run.segs))
	var vRates, rates, wallRates, refSpeeds []float64
	total := 0
	for s, seg := range run.segs {
		l := &segs[s]
		var vFirst, vLast time.Duration
		n := 0
		for i := range seg.results {
			r := &seg.results[i]
			if !r.ok() {
				continue
			}
			if r.tokens > 0 {
				l.ttft = append(l.ttft, ms(r.vFirst-r.vStart))
			} else {
				l.ttft = append(l.ttft, ms(r.vFinal-r.vStart))
			}
			if r.tokens >= 2 {
				l.tpot = append(l.tpot, ms(r.vLast-r.vFirst)/float64(r.tokens-1))
			}
			l.e2e = append(l.e2e, ms(r.vFinal-r.vStart))
			if n == 0 || r.vStart < vFirst {
				vFirst = r.vStart
			}
			vLast = max(vLast, r.vFinal)
			n++
		}
		total += len(l.e2e)
		if vLast > vFirst {
			vRates = append(vRates, float64(n)/(vLast-vFirst).Seconds())
		}
		for _, sl := range seg.slices {
			rates = append(rates, sl.perRefSecond())
			wallRates = append(wallRates, sl.perWallSecond())
			refSpeeds = append(refSpeeds, sl.ref.speed())
		}
	}
	tail := tailPercentile(total)
	for _, t := range []struct {
		name string
		of   func(*latencies) []float64
	}{
		{"v_ttft", func(l *latencies) []float64 { return l.ttft }},
		{"v_tpot", func(l *latencies) []float64 { return l.tpot }},
		{"v_e2e", func(l *latencies) []float64 { return l.e2e }},
	} {
		var p50s, tails []float64
		for s := range segs {
			xs := append([]float64(nil), t.of(&segs[s])...)
			sort.Float64s(xs)
			p50s, tails = append(p50s, quantile(xs, 0.5)), append(tails, quantile(xs, tail))
		}
		res.Metrics[t.name+"_p50_ms"], res.Metrics[t.name+"_tail_ms"] = median(p50s), median(tails)
		res.notes[t.name+"_p50_ms"] = fmt.Sprintf("n=%d, median of %d segments", total, len(segs))
		res.notes[t.name+"_tail_ms"] = fmt.Sprintf("p%g of n=%d, median of %d segments", tail*100, total, len(segs))
	}
	res.Metrics["v_throughput_rps"] = median(vRates)
	res.Metrics["host_req_per_ref_s"] = median(rates)
	res.Metrics["setup_s"] = run.setupSeconds()
	res.notes["v_throughput_rps"] = fmt.Sprintf("median of %d segments", len(segs))
	res.notes["host_req_per_ref_s"] = fmt.Sprintf("median of %d slices of %v over %d segments", len(rates), daemonSlice, len(segs))
	res.notes["setup_s"] = fmt.Sprintf("generation + spawn to /healthz + warm-up in reference seconds, median of %d; build excluded", len(segs))
	res.Info["req_per_wall_s"] = fmt.Sprintf("%.3f", median(wallRates))
	res.Info["ref_units_per_s"] = fmt.Sprintf("%.0f", median(refSpeeds))
}

// num digs a number out of the /v1/stats reply; missing keys read 0.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, p := range path {
		mm, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = mm[p]
	}
	f, _ := cur.(float64)
	return f
}

// daemonLayers fills the per-layer metrics of daemon_http: server.* from
// the clients' own timings over every segment, the kernel's layers from the
// last daemon's /v1/stats. What the daemon does not publish there stays 0.
func daemonLayers(res *result, plain, traced *daemonRun, tracedSpans int) {
	m := res.Metrics
	var post, poll, stats, ttft, tpot, e2e []float64
	var frames, sse float64
	var cpu time.Duration
	var wallRates, refSpeeds []float64
	okN, errN, sent := 0, 0, 0
	for _, seg := range plain.segs {
		cpu += seg.cpu
		for _, sl := range seg.slices {
			wallRates = append(wallRates, sl.perWallSecond())
			refSpeeds = append(refSpeeds, sl.ref.speed())
		}
		m["server.peak_rss_mb"] = max(m["server.peak_rss_mb"], seg.peakRSSMB)
		for i := range seg.results {
			r := &seg.results[i]
			sent++
			if !r.ok() {
				errN++
				continue
			}
			okN++
			post = append(post, us(r.post))
			poll = append(poll, us(r.poll))
			e2e = append(e2e, ms(r.final))
			if r.tokens > 0 {
				ttft = append(ttft, ms(r.first))
			}
			if r.tokens >= 2 {
				tpot = append(tpot, ms(r.last-r.first)/float64(r.tokens-1))
			}
			if r.stats > 0 {
				stats = append(stats, us(r.stats))
			}
			frames += float64(r.frames)
			sse += us(r.sse)
		}
	}
	sort.Float64s(post)
	n := float64(max(okN, 1))
	m["server.post_us_p50"] = quantile(post, 0.50)
	m["server.post_us_p99"] = quantile(post, 0.99)
	m["server.sse_frames_per_req"] = frames / n
	if frames > 0 {
		m["server.sse_us_per_frame"] = sse / frames
	}
	m["server.poll_us_p50"] = median(poll)
	m["server.stats_us_p50"] = median(stats)
	m["server.cpu_ms_per_req"] = ms(cpu) / n
	m["server.http_errors"] = float64(errN)
	m["server.wall_ttft_p50_ms"] = median(ttft)
	m["server.wall_tpot_p50_ms"] = median(tpot)
	wall := summarize(e2e)
	m["server.wall_e2e_p50_ms"], m["server.wall_e2e_tail_ms"] = wall.P50, wall.Tail

	st := plain.segs[len(plain.segs)-1].stats
	m["core.processes"] = num(st, "processes")
	m["core.pred_calls"] = num(st, "pred_calls")
	m["core.pred_tokens"] = num(st, "pred_tokens")
	m["core.kv_calls"] = num(st, "kv_calls")
	m["core.tool_calls"] = num(st, "tool_calls")
	if l := num(st, "prefix_cache", "lookups"); l > 0 {
		m["core.prefix_hit_share"] = num(st, "prefix_cache", "hits") / l
	}
	m["core.prefix_saved_prefill_s"] = num(st, "prefix_cache", "saved_prefill_ms") / 1e3
	m["core.prefix_nodes"] = num(st, "prefix_cache", "nodes")
	m["core.prefix_evictions"] = num(st, "prefix_cache", "evictions")
	m["core.migrations"] = num(st, "migration", "migrations")
	m["sched.batch_calls_avg"] = num(st, "avg_batch")
	m["sched.gpu_busy_share"] = num(st, "gpu_busy")
	m["sched.preemptions"] = num(st, "preemptions")
	m["sched.admit_deferred"] = num(st, "admit_deferred")
	m["sched.spec_rounds"] = num(st, "spec", "rounds")
	m["sched.spec_drafted"] = num(st, "spec", "drafted_tokens")
	if reps, ok := st["replicas"].([]any); ok {
		for _, r := range reps {
			if rm, ok := r.(map[string]any); ok {
				m["sched.steps"] += num(rm, "steps")
				m["sched.exec_tokens"] += num(rm, "tokens")
			}
		}
		m["sched.replica_imbalance"] = 1
	}
	if lanes, ok := st["lanes"].([]any); ok {
		for _, l := range lanes {
			lm, _ := l.(map[string]any)
			if name, _ := lm["lane"].(string); name == "interactive" || name == "batch" {
				m["sched."+name+".delay_p50_ms"] = num(lm, "queue_delay_p50_us") / 1e3
				m["sched."+name+".delay_p99_ms"] = num(lm, "queue_delay_p99_us") / 1e3
			}
		}
	}
	for _, k := range []string{"reclaims", "offloads", "offloaded_tokens", "restores", "swap_restores", "preemptions"} {
		m["kvd."+k] = num(st, "kvd", k)
	}
	m["kvd.spills"] = num(st, "disk", "spills")
	m["kvd.disk_loads"] = num(st, "disk", "loads")
	m["kvd.disk_recomputes"] = num(st, "disk", "recomputes")
	if c := num(st, "gpu_page_cap"); c > 0 {
		m["kvfs.gpu_peak_share"] = num(st, "gpu_pages") / c // the daemon publishes current, not peak, pages
	}

	tracedOK, tracedAll := 0, 0
	var tracedHost, plainHost float64 // reference seconds
	for _, seg := range traced.segs {
		for _, sl := range seg.slices {
			tracedHost += sl.refSeconds()
		}
		tracedAll += len(seg.warm) + 1 + len(seg.results)
		for i := range seg.results {
			if seg.results[i].ok() {
				tracedOK++
			}
		}
	}
	if tracedAll > 0 {
		m["trace.spans_per_req"] = float64(tracedSpans) / float64(tracedAll)
	}
	// Host time per request, traced against untraced, both closed loop.
	for _, seg := range plain.segs {
		for _, sl := range seg.slices {
			plainHost += sl.refSeconds()
		}
	}
	if okN > 0 && tracedOK > 0 {
		p, t := plainHost/float64(okN), tracedHost/float64(tracedOK)
		m["trace.host_overhead_share"] = (t - p) / p
	}

	m["host.req_per_wall_s"] = median(wallRates)
	m["host.ref_units_per_s"] = median(refSpeeds)
	m["host.cpu_s_per_kreq"] = cpu.Seconds() * 1000 / n
	m["host.peak_rss_mb"] = m["server.peak_rss_mb"]
	m["host.build_s"] = plain.buildWall.Seconds()
	m["gen.sent"] = float64(sent)
	m["gen.ok"] = float64(okN)
	m["gen.failed"] = float64(errN)
	m["gen.fail_share"] = float64(errN) / float64(max(sent, 1))
}
