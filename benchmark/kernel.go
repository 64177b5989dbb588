package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/lipscript"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// warmShare of every run's requests are warm-up: they are sent and must
// succeed, but are left out of latency, throughput and host-cost metrics.
const warmShare = 0.10

// inflightCap bounds an open-loop generator: an arrival that finds this
// many requests in flight is refused instead of sent, and a refused
// request misses every latency limit. It keeps an overloaded rung from
// costing the benchmark's time cap instead of its own fail_share.
const inflightCap = 64

// kernelSpec is one of the three workloads that drive a kernel directly on
// a pure virtual clock.
type kernelSpec struct {
	name     string
	openLoop bool
	// rates are the open-loop arrival rates in requests per virtual
	// second, lowest first; rates[primary] is the rung end-to-end metrics
	// are taken at. Closed-loop workloads have none.
	rates   []rung
	primary int
	// requests is the frozen number of requests (sessions) one run sends.
	requests int
	// clients is the closed-loop client count.
	clients int
	gen     func(seed int64, n int, rate float64) []request
	config  func(clk *simclock.Clock, tok *token.Tokenizer, tr *trace.Tracer) core.Config
	// start, when set, runs after the kernel is built (tools, background
	// actors) and returns what the root actor calls when all requests are
	// done.
	start func(clk *simclock.Clock, k *core.Kernel) (stop func())
	// ttftLane / e2eLane restrict the TTFT+TPOT and the E2E population to
	// one lane of a mixed workload; empty means every request.
	ttftLane, e2eLane string
	// noSharing marks a workload whose prompts share nothing: the checker
	// fails the run if the prefix cache reports a single hit token.
	noSharing bool
	// slo is the latency limit of the open-loop rungs, calibrated once at
	// the seed commit so that rung lo passes and rung hi fails, then frozen.
	slo sloLimits
	// watchdog is the host time after which an unfinished run is shut
	// down and its unfinished requests recorded as failed.
	watchdog time.Duration
}

func targetModels() map[string]*model.Model {
	target := model.New(model.Llama13B())
	return map[string]*model.Model{
		"llama-13b": target,
		"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
	}
}

func gpuFS(gpuTokens, hostTokens int) kvfs.Config {
	bpt := model.A100Llama13B().KVBytesPerToken
	return kvfs.Config{
		PageTokens:    16,
		GPUBytes:      int64(gpuTokens) * bpt,
		HostBytes:     int64(hostTokens) * bpt,
		BytesPerToken: bpt,
	}
}

var prefixShare = kernelSpec{
	name:     "prefix_share",
	openLoop: true,
	rates:    []rung{{Name: "lo", Rate: 2}, {Name: "mid", Rate: 4}, {Name: "hi", Rate: 6}},
	primary:  1,
	requests: 600,
	gen:      genPrefixShare,
	config: func(clk *simclock.Clock, tok *token.Tokenizer, tr *trace.Tracer) core.Config {
		return core.Config{
			Models: targetModels(), DefaultModel: "llama-13b",
			// 80k GPU tokens hold all 32 preambles and the traffic in
			// flight: capacity is not what this workload studies.
			FS:             gpuFS(81920, 327680),
			KV:             kvd.Config{Policy: "lru"},
			Policy:         sched.DefaultPoisson(),
			PriorityPolicy: sched.DefaultLanes(),
			PrefillChunk:   512,
			Prefix:         core.PrefixConfig{Enabled: true, CacheAwareOrder: true},
			Replicas:       2,
			Dispatcher:     &sched.CacheAffinityMigrate{},
			Tokenizer:      tok,
			Tracer:         tr,
		}
	},
	// At the seed commit six requests a second do not saturate two
	// replicas that hit the cache nine times in ten: the hi rung is only
	// just past the limit (TPOT p99 52 ms on seed 1, 44 ms at lo).
	slo:      sloLimits{TTFTms: 1000, TPOTms: 50},
	watchdog: 45 * time.Second,
}

var mixedLanes = kernelSpec{
	name:     "mixed_lanes",
	openLoop: true,
	rates:    []rung{{Name: "lo", Rate: 1.5}, {Name: "mid", Rate: 3}, {Name: "hi", Rate: 4.5}},
	primary:  1,
	requests: 1200,
	gen:      genMixedLanes,
	config: func(clk *simclock.Clock, tok *token.Tokenizer, tr *trace.Tracer) core.Config {
		return core.Config{
			Models: targetModels(), DefaultModel: "llama-13b",
			FS:             gpuFS(81920, 327680),
			KV:             kvd.Config{Policy: "lru"},
			Policy:         sched.DefaultPoisson(),
			PriorityPolicy: &sched.Lanes{SliceTokens: sched.DefaultQuantum, MaxStepTokens: 512, AgeAfter: sched.DefaultAgeAfter},
			PrefillChunk:   512,
			Spec:           &core.SpecConfig{Draft: "draft-1b"},
			// On, with nothing to share: its cost on unshared traffic is
			// part of what this workload shows. Every prompt leaves nodes
			// nobody will match, so the tree is capped at 512 nodes (32k
			// tokens) to stay well inside GPU memory.
			Prefix:    core.PrefixConfig{Enabled: true, CacheAwareOrder: true, MaxNodes: 512},
			Replicas:  1,
			Tokenizer: tok,
			Tracer:    tr,
		}
	},
	ttftLane:  "interactive",
	e2eLane:   "batch",
	noSharing: true,
	// Interactive TPOT p99 is ~110-135 ms at lo, ~205-250 ms at mid.
	slo:      sloLimits{TTFTms: 1000, TPOTms: 160},
	watchdog: 45 * time.Second,
}

// Frozen sizes of the kv_pressure workload's memory hierarchy.
const (
	kvClients       = 16
	kvGPUTokens     = 24576
	kvHostTokens    = 8192
	kvDiskBytes     = 64 << 30
	kvCheckpointGap = 30 * time.Second // virtual
)

// thinkTool is the kv_pressure sessions' tool: two virtual seconds of
// waiting, during which the session's KV is idle and offloadable.
var thinkTool = core.Tool{Latency: kvThink, Fn: func(string) (string, error) { return "ok", nil }}

var kvPressure = kernelSpec{
	name:     "kv_pressure",
	requests: 240,
	clients:  kvClients,
	gen:      genKVPressure,
	config: func(clk *simclock.Clock, tok *token.Tokenizer, tr *trace.Tracer) core.Config {
		return core.Config{
			Models: targetModels(), DefaultModel: "llama-13b",
			FS:             gpuFS(kvGPUTokens, kvHostTokens),
			KV:             kvd.Config{Policy: "lru"},
			Disk:           core.DiskConfig{Bytes: kvDiskBytes},
			Policy:         sched.DefaultPoisson(),
			PriorityPolicy: sched.DefaultLanes(),
			Replicas:       1,
			Tokenizer:      tok,
			Tracer:         tr,
		}
	},
	start: func(clk *simclock.Clock, k *core.Kernel) func() {
		k.RegisterTool(kvThinkTool, thinkTool)
		stop := clk.NewEvent()
		clk.Go("kv-checkpoint", func() {
			for {
				fired, err := stop.WaitFor(kvCheckpointGap)
				if fired || err != nil {
					return
				}
				// A failed commit leaves the previous generation in place;
				// the sessions it would have covered still complete.
				_, _ = k.CheckpointKV()
			}
		})
		return stop.Fire
	},
	watchdog: 45 * time.Second,
}

var kernelSpecs = []*kernelSpec{&prefixShare, &mixedLanes, &kvPressure}

// reqResult is what the generator observed of one request, on the virtual
// clock, through the process event stream.
type reqResult struct {
	req      *request
	measured bool
	refused  bool
	pid      int
	due      time.Duration // when it was due (open loop) or sent (closed loop)
	sent     time.Duration
	first    time.Duration // first token event
	last     time.Duration // last token event
	final    time.Duration // terminal status event
	tokens   int
	status   core.Status
	errText  string
	output   string
}

func (r *reqResult) ok() bool { return !r.refused && r.status == core.StatusDone }

// ttft is the time from due to the first token; a request that legally
// produced no token (immediate end-of-sequence) answers at its final event.
func (r *reqResult) ttft() time.Duration {
	if r.tokens == 0 {
		return r.final - r.due
	}
	return r.first - r.due
}

// tpot is the mean gap between output tokens; a request with fewer than
// two tokens has none and ok is false.
func (r *reqResult) tpot() (d time.Duration, ok bool) {
	if r.tokens < 2 {
		return 0, false
	}
	return (r.last - r.first) / time.Duration(r.tokens-1), true
}

// hostCost is what the Go code itself spent on one phase of a run.
type hostCost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

type hostMark struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only fails on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func markHost() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{at: time.Now(), cpu: selfCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

func (m hostMark) until(end hostMark) hostCost {
	return hostCost{
		wall: end.at.Sub(m.at), cpu: end.cpu - m.cpu,
		mallocs: end.mallocs - m.mallocs, bytes: end.bytes - m.bytes, gcs: end.gcs - m.gcs,
	}
}

// kernelRun is one run of a kernel workload at one rate.
type kernelRun struct {
	spec     *kernelSpec
	rate     float64
	results  []reqResult
	inflight []int // requests in flight at each arrival, for the backlog rule
	lateness []float64
	stats    core.Stats
	timedOut bool

	genWall       time.Duration // input generation
	constructWall time.Duration // tokenizer + kernel construction
	warmWall      time.Duration // start of traffic to the first measured arrival
	measured      hostCost      // first measured arrival to the last completion
	tracer        *trace.Tracer

	// setupRef times the reference computation before and after set-up,
	// hostRef every refGap inside the measured phase (see ref.go).
	setupRef, hostRef *refMeter
}

func newKernelRun(spec *kernelSpec, rate float64) *kernelRun {
	return &kernelRun{spec: spec, rate: rate, setupRef: newRefMeter(), hostRef: newRefMeter()}
}

func (r *kernelRun) setupWall() time.Duration { return r.genWall + r.constructWall + r.warmWall }

// setupSeconds is the set-up time in reference seconds.
func (r *kernelRun) setupSeconds() float64 {
	return r.setupWall().Seconds() * r.setupRef.timing().factor()
}

// hostSeconds is the measured phase's host time in reference seconds.
func (r *kernelRun) hostSeconds() float64 { return r.hostRef.refSeconds(r.measured.wall) }

// runKernel generates the workload's inputs from seed and drives them
// through a fresh kernel on a fresh virtual clock. With setupOnly it stops
// at the first measured arrival: one more sample of set-up time.
func runKernel(spec *kernelSpec, seed int64, rate float64, n int, traced, setupOnly bool) *kernelRun {
	run := newKernelRun(spec, rate)
	run.setupRef.sample(refSetupSlice)
	t0 := time.Now()
	reqs := spec.gen(seed, n, rate)
	run.genWall = time.Since(t0)

	t1 := time.Now()
	if traced {
		run.tracer = trace.New()
	}
	clk := simclock.New()
	k := core.New(clk, spec.config(clk, newTokenizer(), run.tracer))
	run.constructWall = time.Since(t1)

	// A closed loop's first wave — one request per client, all sent at time
	// zero — is warm-up whatever the share says.
	warm := max(int(float64(n)*warmShare), spec.clients)
	run.results = make([]reqResult, n)
	subs := make([]*core.Subscription, n)
	procs := make([]*core.Process, n)
	var (
		mu        sync.Mutex
		inflight  int
		startMark hostMark
	)
	trafficStart := time.Now()
	done := make(chan struct{})
	refStop := clk.NewEvent()

	// send submits request i from the calling actor and returns its
	// process, or nil when the script is rejected.
	send := func(i int) *core.Process {
		res := &run.results[i]
		p, err := lipscript.Submit(k, reqs[i].user, reqs[i].body)
		if err != nil {
			res.status, res.errText = core.StatusFailed, err.Error()
			return nil
		}
		res.pid, res.sent = p.PID(), clk.Now()
		procs[i], subs[i] = p, p.Subscribe(0)
		return p
	}
	// arrive notes request i's arrival and reports whether to go on.
	arrive := func(i int) bool {
		run.results[i] = reqResult{req: &reqs[i], measured: i >= warm, due: reqs[i].due}
		if i == warm {
			run.warmWall = time.Since(trafficStart)
			run.setupRef.sample(refSetupSlice)
			if setupOnly {
				return false
			}
			startMark = markHost()
			run.hostRef.sample(refSlice)
			// A bystander of the simulation: it shares nothing with the
			// kernel but the clock, so virtual results are the same with it.
			clk.Go("reference", func() {
				for {
					fired, err := refStop.WaitFor(refVirtualGap)
					if fired || err != nil {
						return
					}
					run.hostRef.tick()
				}
			})
		}
		return true
	}
	clk.Go("generator", func() {
		defer close(done)
		var stop func()
		if spec.start != nil {
			stop = spec.start(clk, k)
		}
		// The group's counter may touch zero between arrivals, which would
		// fire it for good; the generator's own count holds it open.
		wg := clk.NewWaitGroup()
		wg.Add(1)
		if spec.openLoop {
			for i := range reqs {
				if err := clk.Sleep(reqs[i].due - clk.Now()); err != nil {
					return
				}
				if !arrive(i) {
					clk.Shutdown()
					return
				}
				run.lateness = append(run.lateness, float64(clk.Now()-reqs[i].due)/float64(time.Millisecond))
				mu.Lock()
				run.inflight = append(run.inflight, inflight)
				full := inflight >= inflightCap
				if !full {
					inflight++
				}
				mu.Unlock()
				if full {
					run.results[i].refused = true
					continue
				}
				p := send(i)
				if p == nil {
					mu.Lock()
					inflight--
					mu.Unlock()
					continue
				}
				wg.Add(1)
				clk.Go("waiter", func() {
					defer wg.Done()
					_ = p.Wait() // the outcome is read from the process below
					mu.Lock()
					inflight--
					mu.Unlock()
				})
			}
		} else {
			next := 0
			for c := 0; c < spec.clients; c++ {
				wg.Add(1)
				clk.Go("client", func() {
					defer wg.Done()
					for {
						mu.Lock()
						i := next
						next++
						mu.Unlock()
						if i >= len(reqs) {
							return
						}
						if !arrive(i) {
							clk.Shutdown()
							return
						}
						run.results[i].due = clk.Now()
						p := send(i)
						if p == nil {
							continue
						}
						if err := p.Wait(); err != nil && clk.Down() {
							return
						}
					}
				})
			}
		}
		wg.Done()
		_ = wg.Wait() // fails only on shutdown, which the watchdog reports
		refStop.Fire()
		if stop != nil {
			stop()
		}
	})

	watchdog := time.NewTimer(spec.watchdog)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-watchdog.C:
		run.timedOut = true
	}
	if !startMark.at.IsZero() {
		run.hostRef.sample(refSlice)
	}
	endMark := markHost()
	if !startMark.at.IsZero() {
		run.measured = startMark.until(endMark)
	}
	run.stats = k.Stats()
	clk.Shutdown()
	<-done
	closed := make(chan struct{})
	close(closed)
	for i := range run.results {
		res := &run.results[i]
		if procs[i] == nil {
			continue
		}
		for {
			ev, ok := subs[i].Next(closed)
			if !ok {
				break
			}
			switch {
			case ev.Kind == core.EventToken:
				if res.tokens == 0 {
					res.first = ev.At
				}
				res.last = ev.At
				res.tokens++
			case ev.Final:
				res.final = ev.At
			}
		}
		subs[i].Close()
		res.status, res.output = procs[i].Status(), procs[i].Output()
		if err := procs[i].Err(); err != nil {
			res.errText = err.Error()
		}
		if !res.status.Terminal() || run.timedOut && res.final == 0 {
			res.status, res.errText = core.StatusFailed, "unfinished when the host-time watchdog fired"
		}
	}
	return run
}

// virtualDigest hashes every virtual timestamp and output of a run: two
// runs of one seed on one build must agree bit for bit.
func (r *kernelRun) virtualDigest() string {
	h := sha256.New()
	for i := range r.results {
		x := &r.results[i]
		fmt.Fprintf(h, "%d %v %d %d %d %d %d %d %s %q\n", i, x.refused, x.due, x.sent, x.first, x.last, x.final, x.tokens, x.status, x.output)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// outputDigest hashes only what the programs answered, which must survive
// any change to caching, batching, speculation or memory management.
func (r *kernelRun) outputDigest() string {
	h := sha256.New()
	for i := range r.results {
		fmt.Fprintf(h, "%d %q\n", i, r.results[i].output)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
