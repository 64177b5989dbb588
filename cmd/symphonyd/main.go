// Command symphonyd serves a Symphony kernel over HTTP — Figure 1
// (bottom) as a runnable daemon. Clients ship declarative LIPs (lipscript
// JSON) as asynchronous jobs to the v2 API: POST /v2/programs returns a
// job ID immediately, GET /v2/programs/{id}/events streams progress as
// Server-Sent Events, and DELETE /v2/programs/{id} cancels. The
// synchronous /v1/programs and /v1/completions endpoints are thin
// wrappers over the same job layer. The kernel runs against the simulated
// model on a realtime-paced virtual clock, so observed latencies follow
// the A100/13B cost model.
//
// The batch scheduler can drive several simulated GPUs: -gpus sets the
// replica count and -dispatch selects how pred calls are routed across
// them (round-robin, least-loaded, cache-affinity — which pins forks of
// one conversation to the replica holding their prefix — or
// cache-affinity-migrate, which additionally lets the kernel migrate a
// stranded prefix's KV pages to a colder replica over a simulated
// 100 Gbit/s interconnect once its home carries 1.5x the mean load, each
// move streaming to the affected job as a kv_migrate event). Per-replica
// utilization and the migration ledger are reported by /v1/stats.
//
// The batch scheduler executes iteration-level (Orca-style continuous
// batching), and -priority-policy orders every iteration — "lanes"
// (default) runs each pred call up to 128 tokens per GPU iteration in
// strict interactive/normal/batch priority lanes with aging and preempts
// mid-flight batch work at iteration boundaries when interactive calls
// wait; "fifo" is the run-to-completion baseline, each prompt one slice.
// The policy's quantum is the only bound on a call's prompt slice.
// Requests pick their lane with a "priority" field on v1/v2 program (and
// completion) bodies; -default-priority sets the lane for requests that
// don't, and -batch-tenants lists tenants whose jobs default to the batch
// lane. Per-lane queue-delay histograms and preemption counters are
// reported by /v1/stats under "lanes".
//
// -spec-decode composes with either policy: it runs greedy and
// seeded-sampled decode runs as draft/verify rounds against the built-in
// draft-1b model inside each iteration — the draft proposes a constant
// window of 4 tokens a round, the target verifies them in one batched
// step, and the accepted prefix plus one correction token retire
// together. A decode run advances one round per iteration under either
// policy; the speculation ledger is reported by /v1/stats under "spec".
//
// A kernel radix prefix cache (-prefix-cache) deduplicates KV across
// jobs: every committed prefill leaves its -prefix-chunk-aligned
// prefixes in a radix tree, and a later prompt that extends a cached
// prefix attaches it copy-on-write and prefills only the uncached tail.
// The hit ledger is reported by /v1/stats under "prefix_cache"; each
// attach streams to the affected job as a kv_share event.
//
// GPU KV memory is managed by the kernel memory daemon, whose reclaim
// starts at 90% GPU usage. Under pressure the daemon offloads the least
// recently used KV files to host memory and restores them transparently
// on access; a program keeps a file resident by holding its advisory
// lock (the lipscript "lock" op). A KV syscall that still cannot allocate
// swaps out its own files and retries instead of failing. Daemon counters
// appear under "kvd" in /v1/stats, and offload/restore events stream to
// the affected job as kv_pressure events on the v2 SSE surface. The daemon mounts no disk
// tier: warm restart from durable KV is a property of the kernel
// (core.Config.Disk), shown by symphony-bench -exp restart.
//
//	symphonyd -addr :8080 -speedup 1 -gpus 4 -dispatch cache-affinity
//	curl -s -X POST localhost:8080/v2/programs -d @examples/wire/stream.json
//	curl -sN localhost:8080/v2/programs/job-000001/events
//	curl -s -X DELETE localhost:8080/v2/programs/job-000001
//	curl -s localhost:8080/v1/completions -d '{"prompt":"hi","max_tokens":16}'
//	curl -s localhost:8080/v1/stats
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/simclock"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	speedup := flag.Float64("speedup", 1, "virtual-time speedup over wall time")
	gpus := flag.Int("gpus", 1, "number of simulated GPU replicas")
	dispatch := flag.String("dispatch", "round-robin",
		"replica dispatch policy ("+strings.Join(sched.DispatcherNames(), "|")+")")
	prioPolicy := flag.String("priority-policy", "lanes",
		"GPU iteration ordering policy ("+strings.Join(sched.PriorityPolicyNames(), "|")+")")
	specDecode := flag.Bool("spec-decode", false,
		"speculatively decode greedy and seeded-sampled generation runs on the draft-1b model inside each GPU iteration, any priority policy")
	prefixCache := flag.Bool("prefix-cache", false,
		"enable the kernel radix prefix cache: cross-job KV deduplication of shared prompt prefixes by copy-on-write share")
	prefixChunk := flag.Int("prefix-chunk", core.DefaultPrefixChunk,
		"radix chunk size in tokens for -prefix-cache (rounded up to a KV page multiple)")
	defaultPriority := flag.String("default-priority", "normal",
		"scheduling lane for requests without a priority field (interactive|normal|batch)")
	batchTenants := flag.String("batch-tenants", "",
		"comma-separated tenants whose jobs default to the batch lane")
	maxJobs := flag.Int("max-jobs-per-user", 32, "cap on a tenant's concurrently live jobs")
	retention := flag.Duration("job-retention", 10*time.Minute,
		"how long finished jobs stay pollable (virtual time)")
	flag.Parse()

	// Reject bad enumerated flag values up front, each with the list of
	// valid names, instead of failing deep inside kernel setup.
	dispatcher, err := sched.NewDispatcher(*dispatch)
	if err != nil {
		log.Fatalf("%v\nvalid dispatchers: %s", err, strings.Join(sched.DispatcherNames(), ", "))
	}
	priority, err := sched.NewPriorityPolicy(*prioPolicy)
	if err != nil {
		log.Fatalf("%v\nvalid priority policies: %s", err, strings.Join(sched.PriorityPolicyNames(), ", "))
	}
	if _, err := sched.ParsePriority(*defaultPriority); err != nil {
		log.Fatalf("-default-priority: %v", err)
	}
	if *prefixChunk <= 0 {
		log.Fatalf("-prefix-chunk must be positive (got %d)", *prefixChunk)
	}
	tenantPrio := make(map[string]string)
	for _, tenant := range strings.Split(*batchTenants, ",") {
		if tenant = strings.TrimSpace(tenant); tenant != "" {
			tenantPrio[tenant] = "batch"
		}
	}
	cfg := core.DefaultConfig()
	if *specDecode {
		cfg.Spec = &core.SpecConfig{Draft: "draft-1b"}
	}
	cfg.PriorityPolicy = priority
	cfg.Replicas = *gpus
	cfg.Dispatcher = dispatcher
	cfg.Prefix = core.PrefixConfig{Enabled: *prefixCache, ChunkTokens: *prefixChunk}
	clk := simclock.NewRealtime(*speedup)
	kernel := core.New(clk, cfg)
	lipscript.RegisterTools(kernel)

	srv := server.NewWith(clk, kernel, server.Options{
		MaxJobsPerUser:  *maxJobs,
		Retention:       *retention,
		DefaultPriority: *defaultPriority,
		TenantPriority:  tenantPrio,
	})
	specNote := "off"
	if sc := kernel.SpecDecode(); sc != nil {
		specNote = fmt.Sprintf("%s w=%d", sc.Draft, sched.DefaultSpecWindow)
	}
	prefixNote := "off"
	if *prefixCache {
		prefixNote = fmt.Sprintf("chunk %d", kernel.Stats().PrefixCache.ChunkTokens)
	}
	log.Printf("symphonyd: llama-13b (simulated) on %s, %gx virtual time, %d GPU replica(s), %s dispatch, %s priority policy, spec decode %s, prefix cache %s",
		*addr, *speedup, kernel.Scheduler().Replicas(), kernel.Scheduler().Dispatcher(),
		kernel.Scheduler().PriorityPolicy(), specNote, prefixNote)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}
