package main

// metricDef is one metric as BENCHMARK.json declares it. The lists below
// are the single definition; a test keeps BENCHMARK.json equal to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, and every workload reports every one.
// Two clocks are kept apart by name. v_* is virtual time, the modelled
// A100/13B deployment a user of the service would wait on: the kernel
// workloads read it off the process event stream, daemon_http off the at_ns
// stamp of every SSE frame, and for one seed it repeats bit for bit on the
// kernel workloads. host_req_per_ref_s and setup_s are what the Go code itself
// costs, in reference seconds: wall time scaled by the speed of a reference
// computation timed alongside (ref.go), because on a shared two-core box wall
// time moves by a third with the machine's mood. daemon_http's wall-clock
// latencies are per-layer metrics (server.wall_*): too wide to gate.
//
// The v_* bounds are wide because the driver compares runs of different
// seeds: they have to hold the seed-to-seed spread of a tail percentile.
var endToEnd = []metricDef{
	{"v_ttft_p50_ms", "ms", "lower", 0.20},
	{"v_ttft_tail_ms", "ms", "lower", 0.25},
	{"v_tpot_p50_ms", "ms", "lower", 0.20},
	{"v_tpot_tail_ms", "ms", "lower", 0.25},
	{"v_e2e_p50_ms", "ms", "lower", 0.25},
	{"v_e2e_tail_ms", "ms", "lower", 0.25},
	{"v_throughput_rps", "1/s", "higher", 0.20},
	{"host_req_per_ref_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer are read, not gated. A layer that is idle on a workload reports
// 0 there, which is itself the reading: kvd.offloads is 0 on prefix_share.
var perLayer = []metricDef{
	// server: daemon_http only, measured at the client.
	layer("server.post_us_p50", "us", "lower"),
	layer("server.post_us_p99", "us", "lower"),
	layer("server.sse_frames_per_req", "count", "lower"),
	layer("server.sse_us_per_frame", "us", "lower"),
	layer("server.poll_us_p50", "us", "lower"),
	layer("server.stats_us_p50", "us", "lower"),
	layer("server.cpu_ms_per_req", "ms", "lower"),
	layer("server.peak_rss_mb", "MiB", "lower"),
	layer("server.http_errors", "count", "lower"),
	layer("server.wall_ttft_p50_ms", "ms", "lower"),
	layer("server.wall_tpot_p50_ms", "ms", "lower"),
	layer("server.wall_e2e_p50_ms", "ms", "lower"),
	layer("server.wall_e2e_tail_ms", "ms", "lower"),
	// unit costs of the ingress path.
	layer("lipscript.parse_us_per_req", "us", "lower"),
	layer("lipscript.parse_allocs_per_req", "count", "lower"),
	layer("lipscript.stmts_per_req", "count", "lower"),
	layer("token.encode_ns_per_tok", "ns", "lower"),
	layer("model.next_ns", "ns", "lower"),
	layer("model.next_allocs", "count", "lower"),
	// core: syscall counts and the prefix cache and migration ledgers.
	layer("core.processes", "count", "higher"),
	layer("core.pred_calls", "count", "lower"),
	layer("core.pred_tokens", "count", "lower"),
	layer("core.kv_calls", "count", "lower"),
	layer("core.tool_calls", "count", "lower"),
	layer("core.pred_rtt_p50_ms", "ms", "lower"),
	layer("core.pred_rtt_p99_ms", "ms", "lower"),
	layer("core.tool_wait_ms_per_req", "ms", "lower"),
	layer("core.restore_ms_per_req", "ms", "lower"),
	layer("core.prefix_hit_share", "ratio", "higher"),
	layer("core.prefix_token_share", "ratio", "higher"),
	layer("core.prefix_saved_prefill_s", "s", "higher"),
	layer("core.prefix_nodes", "count", "lower"),
	layer("core.prefix_evictions", "count", "lower"),
	layer("core.migrations", "count", "lower"),
	layer("core.migrate_ms", "ms", "lower"),
	// sched: the step loop.
	layer("sched.steps", "count", "lower"),
	layer("sched.batch_calls_avg", "count", "higher"),
	layer("sched.batch_tokens_avg", "count", "higher"),
	layer("sched.gpu_busy_share", "ratio", "lower"),
	layer("sched.exec_tokens", "count", "lower"),
	layer("sched.spec_drafted", "count", "lower"),
	layer("sched.preemptions", "count", "lower"),
	layer("sched.interactive.delay_p50_ms", "ms", "lower"),
	layer("sched.interactive.delay_p99_ms", "ms", "lower"),
	layer("sched.batch.delay_p50_ms", "ms", "lower"),
	layer("sched.batch.delay_p99_ms", "ms", "lower"),
	layer("sched.admit_deferred", "count", "lower"),
	layer("sched.admit_wait_ms", "ms", "lower"),
	layer("sched.spec_rounds", "count", "lower"),
	layer("sched.spec_accept_share", "ratio", "higher"),
	layer("sched.replica_imbalance", "ratio", "lower"),
	layer("sched.host_us_per_step", "us", "lower"),
	layer("sched.host_us_per_step_b1", "us", "lower"),
	layer("sched.host_us_per_step_b32", "us", "lower"),
	// kvd: the memory daemon.
	layer("kvd.reclaims", "count", "lower"),
	layer("kvd.offloads", "count", "lower"),
	layer("kvd.offloaded_tokens", "count", "lower"),
	layer("kvd.restores", "count", "lower"),
	layer("kvd.restore_cost_ms", "ms", "lower"),
	layer("kvd.undone_offload_share", "ratio", "lower"),
	layer("kvd.swap_restores", "count", "lower"),
	layer("kvd.preemptions", "count", "lower"),
	layer("kvd.spills", "count", "lower"),
	layer("kvd.disk_loads", "count", "lower"),
	layer("kvd.disk_load_cost_ms", "ms", "lower"),
	layer("kvd.disk_recomputes", "count", "lower"),
	layer("kvd.host_us_per_reclaim", "us", "lower"),
	layer("kvd.host_us_per_reclaim_64", "us", "lower"),
	// kvfs and kvstore: the KV file system and its snapshot store.
	layer("kvfs.gpu_peak_share", "ratio", "lower"),
	layer("kvfs.forks", "count", "lower"),
	layer("kvfs.cow_copies", "count", "lower"),
	layer("kvfs.shares", "count", "higher"),
	layer("kvfs.oom_errors", "count", "lower"),
	layer("kvfs.append_ns_per_tok", "ns", "lower"),
	layer("kvfs.fork_ns", "ns", "lower"),
	layer("kvfs.adopt_ns", "ns", "lower"),
	layer("kvfs.offload_ns_per_page", "ns", "lower"),
	layer("kvstore.disk_peak_share", "ratio", "lower"),
	layer("kvstore.encode_mb_per_s", "MiB/s", "higher"),
	layer("kvstore.decode_mb_per_s", "MiB/s", "higher"),
	layer("kvstore.commit_us", "us", "lower"),
	// simclock and the tracer.
	layer("simclock.ns_per_sleep_wake", "ns", "lower"),
	layer("simclock.ns_per_event_wake", "ns", "lower"),
	layer("trace.spans_per_req", "count", "lower"),
	layer("trace.host_overhead_share", "ratio", "lower"),
	// host: what the measured process itself cost.
	layer("host.req_per_wall_s", "1/s", "higher"),
	layer("host.ref_units_per_s", "1/s", "higher"),
	layer("host.cpu_s_per_kreq", "s", "lower"),
	layer("host.peak_rss_mb", "MiB", "lower"),
	layer("host.gc_cycles", "count", "lower"),
	layer("host.gc_cpu_share", "ratio", "lower"),
	layer("host.build_s", "s", "lower"),
	layer("host.allocs_per_req", "count", "lower"),
	layer("host.alloc_kb_per_req", "KiB", "lower"),
	// gen: the load generator's own ledger.
	layer("gen.sent", "count", "higher"),
	layer("gen.ok", "count", "higher"),
	layer("gen.failed", "count", "lower"),
	layer("gen.refused", "count", "lower"),
	layer("gen.fail_share", "ratio", "lower"),
	layer("gen.lateness_p99_ms", "ms", "lower"),
	// slo and rung: open-loop workloads only.
	layer("slo.v_goodput_rps", "1/s", "higher"),
	layer("slo.v_rate_rps", "1/s", "higher"),
	layer("rung.lo.v_ttft_tail_ms", "ms", "lower"),
	layer("rung.lo.slo_share", "ratio", "higher"),
	layer("rung.lo.backlog_ratio", "ratio", "lower"),
	layer("rung.mid.v_ttft_tail_ms", "ms", "lower"),
	layer("rung.mid.slo_share", "ratio", "higher"),
	layer("rung.mid.backlog_ratio", "ratio", "lower"),
	layer("rung.hi.v_ttft_tail_ms", "ms", "lower"),
	layer("rung.hi.slo_share", "ratio", "higher"),
	layer("rung.hi.backlog_ratio", "ratio", "lower"),
}

// workloadDef is one workload as BENCHMARK.json declares it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"prefix_share", "open loop; 32 shared 1,024-token preambles on 2 replicas: the prefix cache, KV sharing, affinity routing and migration do the work, kvd almost none"},
	{"mixed_lanes", "open loop; unshared interactive and batch requests on 1 replica: lanes, preemption, chunking and speculation do the work, and the prefix cache must not help"},
	{"kv_pressure", "closed loop; 16 clients of multi-turn tool-calling sessions that overflow GPU and host KV memory: kvd, kvfs offload/restore and the disk tier do the work"},
	{"daemon_http", "closed loop; 1 keep-alive client against a spawned symphonyd on one CPU: HTTP, parsing, SSE, the job registry and clock pacing do the work, the GPU model almost none"},
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default of --seconds.
const runSeconds = 20

func benchmarkJSON() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
