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
// NVLink/IB-class interconnect: -interconnect-gbps sets the fabric
// bandwidth, -migrate-threshold the home-overload factor, and each move
// streams to the affected job as a kv_migrate event). Per-replica
// utilization and the migration ledger are reported by /v1/stats.
//
// The batch scheduler executes iteration-level (Orca-style continuous
// batching): each pred call runs up to -step-quantum tokens per GPU
// iteration, and -priority-policy orders every iteration — "lanes"
// (default) schedules strict interactive/normal/batch priority lanes
// with aging and preempts mid-flight batch work at iteration boundaries
// when interactive calls wait; "fifo" is the run-to-completion baseline.
// Requests pick their lane with a "priority" field on v1/v2 program (and
// completion) bodies; -default-priority sets the lane for requests that
// don't, and -batch-tenants lists tenants whose jobs default to the
// batch lane. Per-lane queue-delay histograms and preemption counters
// are reported by /v1/stats under "lanes".
//
// Two executor options compose with either policy: -prefill-chunk caps
// the prefill tokens one pred contributes per iteration (Sarathi-style
// chunked prefill, effective even under fifo; 0 disables), and
// -spec-decode runs greedy decode runs as draft/verify rounds against
// the built-in draft-1b model inside each iteration — the draft
// proposes -spec-window tokens a round (a constant), the target verifies
// them in one batched step, and the accepted prefix plus one correction
// token retire together.
// -spec-decode requires an iteration-level -priority-policy; the
// speculation ledger is reported by /v1/stats under "spec".
//
// A kernel radix prefix cache (-prefix-cache) deduplicates KV across
// jobs: every committed prefill leaves its -prefix-chunk-aligned
// prefixes in a radix tree, and a later prompt that extends a cached
// prefix attaches it copy-on-write and prefills only the uncached tail.
// The hit ledger is reported by /v1/stats under "prefix_cache"; each
// attach streams to the affected job as a kv_share event.
//
// GPU KV memory is managed by the kernel memory daemon: -kv-policy
// selects the eviction policy (lru, lfu, cost-aware, or none to disable)
// and -kv-high-water the usage fraction that triggers reclaim. Under
// pressure the daemon offloads cold KV files to host memory and restores
// them transparently on access, and a pred that still cannot allocate
// swaps out its own file and retries instead of failing; daemon counters
// appear under "kvd" in /v1/stats and offload/restore events stream to
// the affected job as kv_pressure events on the v2 SSE surface.
//
// A disk KV tier sits below host memory when -kv-disk-gb is set, the
// daemon's third demotion level: it spills cold host files to an
// FMC1-style snapshot store once host usage crosses -kv-disk-high-water,
// and the first pred on a spilled file pays an NVMe load or a recompute,
// whichever the cost model says is cheaper. The store lives on an
// in-process simulated disk that is new at every boot, so nothing
// outlives the process: warm restart is a property of the kernel, shown
// by symphony-bench -exp restart, which hands one disk across kernels.
// Disk counters appear under "disk" in /v1/stats; spill/load actions
// stream as kv_pressure events.
//
//	symphonyd -addr :8080 -speedup 1 -gpus 4 -dispatch cache-affinity -kv-policy cost-aware
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
	"repro/internal/kvd"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/netsim"
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
	interconnectGbps := flag.Float64("interconnect-gbps", netsim.DefaultInterconnectGbps,
		"replica interconnect bandwidth in Gbit/s for -dispatch cache-affinity-migrate")
	migrateThreshold := flag.Float64("migrate-threshold", core.DefaultMigrateThreshold,
		"home-overload factor above which a prefix family migrates (cache-affinity-migrate)")
	kvPolicy := flag.String("kv-policy", "lru",
		"KV memory daemon eviction policy ("+strings.Join(kvd.PolicyNames(), "|")+"|none)")
	kvHighWater := flag.Float64("kv-high-water", 0.90,
		"GPU KV usage fraction that triggers daemon reclaim")
	kvDiskGB := flag.Float64("kv-disk-gb", 0,
		"disk KV tier size in GiB, the memory daemon's third demotion level (0 disables)")
	kvDiskHighWater := flag.Float64("kv-disk-high-water", 0.85,
		"host KV usage fraction that triggers spilling cold files to disk")
	prioPolicy := flag.String("priority-policy", "lanes",
		"GPU iteration ordering policy ("+strings.Join(sched.PriorityPolicyNames(), "|")+")")
	stepQuantum := flag.Int("step-quantum", sched.DefaultQuantum,
		"max tokens one pred call executes per GPU iteration under the lanes policy")
	prefillChunk := flag.Int("prefill-chunk", 0,
		"max prefill tokens one pred call contributes per GPU iteration, any priority policy (0 disables chunked prefill)")
	specDecode := flag.Bool("spec-decode", false,
		"speculatively decode generation runs on the draft-1b model inside each GPU iteration (requires an iteration-level -priority-policy)")
	specWindow := flag.Int("spec-window", sched.DefaultSpecWindow,
		fmt.Sprintf("draft window for -spec-decode: tokens drafted per round, a constant between 1 and %d", sched.DefaultSpecMaxWindow))
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
	if *stepQuantum <= 0 {
		log.Fatalf("-step-quantum must be positive (got %d)", *stepQuantum)
	}
	if lanes, ok := priority.(*sched.Lanes); ok {
		lanes.SliceTokens = *stepQuantum
	}
	if *prefillChunk < 0 {
		log.Fatalf("-prefill-chunk must be >= 0 (got %d; 0 disables chunking)", *prefillChunk)
	}
	if *specDecode && priority.Quantum() <= 0 {
		log.Fatalf("-spec-decode requires an iteration-level priority policy (have %q; run-to-completion policies never reach a draft/verify boundary)\nvalid policies: %s",
			*prioPolicy, strings.Join(iterationPolicies(), ", "))
	}
	if *specWindow < 1 || *specWindow > sched.DefaultSpecMaxWindow {
		log.Fatalf("-spec-window must be between 1 and %d (got %d)", sched.DefaultSpecMaxWindow, *specWindow)
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
	kvCfg := kvd.Config{Policy: *kvPolicy, HighWater: *kvHighWater}
	if kvCfg.Enabled() {
		if _, err := kvd.NewPolicy(*kvPolicy); err != nil {
			log.Fatalf("%v\nvalid KV policies: %s, none", err, strings.Join(kvd.PolicyNames(), ", "))
		}
	}
	var specCfg *core.SpecConfig
	if *specDecode {
		specCfg = &core.SpecConfig{Draft: "draft-1b", Window: *specWindow}
	}
	clk := simclock.NewRealtime(*speedup)
	target := model.New(model.Llama13B())
	kernel := core.New(clk, core.Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel:     "llama-13b",
		PriorityPolicy:   priority,
		PrefillChunk:     *prefillChunk,
		Spec:             specCfg,
		Replicas:         *gpus,
		Dispatcher:       dispatcher,
		Interconnect:     netsim.InterconnectFromGbps(clk, *interconnectGbps),
		MigrateThreshold: *migrateThreshold,
		KV:               kvCfg,
		Disk: core.DiskConfig{
			Bytes:     int64(*kvDiskGB * float64(1<<30)),
			HighWater: *kvDiskHighWater,
		},
		Prefix: core.PrefixConfig{
			Enabled:     *prefixCache,
			ChunkTokens: *prefixChunk,
		},
	})
	lipscript.RegisterTools(kernel)

	srv := server.NewWith(clk, kernel, server.Options{
		MaxJobsPerUser:  *maxJobs,
		Retention:       *retention,
		DefaultPriority: *defaultPriority,
		TenantPriority:  tenantPrio,
	})
	specNote := "off"
	if specCfg != nil {
		specNote = fmt.Sprintf("%s w=%d", specCfg.Draft, *specWindow)
	}
	prefixNote := "off"
	if *prefixCache {
		prefixNote = fmt.Sprintf("chunk %d", kernel.Stats().PrefixCache.ChunkTokens)
	}
	log.Printf("symphonyd: llama-13b (simulated) on %s, %gx virtual time, %d GPU replica(s), %s dispatch, %s priority policy, %s kv policy, prefill chunk %d, spec decode %s, prefix cache %s",
		*addr, *speedup, kernel.Scheduler().Replicas(), kernel.Scheduler().Dispatcher(),
		kernel.Scheduler().PriorityPolicy(), kernel.KVD().PolicyName(),
		kernel.Scheduler().PrefillChunk(), specNote, prefixNote)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}

// iterationPolicies lists the priority policies compatible with
// -spec-decode: those that bound each call's per-iteration slice, so a
// decode call actually reaches a draft/verify boundary every step.
func iterationPolicies() []string {
	var out []string
	for _, name := range sched.PriorityPolicyNames() {
		if p, err := sched.NewPriorityPolicy(name); err == nil && p.Quantum() > 0 {
			out = append(out, name)
		}
	}
	return out
}
