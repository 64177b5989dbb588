// Package core implements the Symphony kernel: an operating system for LLM
// Inference Programs (paper §4).
//
// Symphony's unit of service is a program, not a prompt. A user submits a
// LIP — here a Go closure receiving a *Ctx — and the kernel runs it as a
// process with OS-style facilities:
//
//   - Pred: the model-computation system call (§4.1). One call is one
//     forward pass over new tokens against a KV file; the calling thread
//     parks in the inference pool while the batch scheduler (internal/sched)
//     aggregates concurrent calls into GPU steps.
//   - KVFS syscalls (§4.2): create/open/fork/extract/merge/lock KV-cache
//     files with persistence, sharing, and access control.
//   - Threads (§4.3): LIPs spawn threads for parallel generation; threads
//     of one process share its KV files and accounting.
//   - Integrated external interaction (§4.3): tools registered with the
//     kernel execute server-side; while a thread waits on tool I/O the
//     kernel offloads its private KV pages to host memory and restores
//     them lazily at the next Pred.
//   - IPC: processes exchange messages through kernel mailboxes, the
//     substrate for cooperative multi-agent programs.
//
// Sandboxing (WASM/seccomp) is out of scope (paper §6); resource
// accounting — per-process token budgets and syscall counters — is not.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/token"
	"repro/internal/trace"
)

// Errors returned by kernel system calls. These are the kernel half of
// the serving API's typed error taxonomy: the HTTP layer maps each to a
// stable machine-readable code and status (internal/server).
var (
	ErrNoModel   = errors.New("core: unknown model")
	ErrNoTool    = errors.New("core: unknown tool")
	ErrNoProcess = errors.New("core: no such process")
	ErrBudget    = errors.New("core: token budget exhausted")
	ErrCancelled = errors.New("core: process cancelled")
	// ErrQuota is the multi-tenant variant of ErrBudget: the user's
	// aggregate cross-process quota is exhausted. It wraps ErrBudget so
	// errors.Is(err, ErrBudget) still matches.
	ErrQuota = fmt.Errorf("%w (user quota)", ErrBudget)
)

// offloadThreshold is the minimum tool latency for which the kernel
// bothers offloading a waiting thread's KV pages.
const offloadThreshold = 50 * time.Millisecond

// Tool is an external interaction registered with the kernel and executed
// server-side on behalf of LIPs (§2.2: weather APIs, code snippets, ...).
type Tool struct {
	// Latency is the simulated external I/O time per invocation.
	Latency time.Duration
	// Fn computes the result. It runs at the end of the latency window.
	Fn func(args string) (string, error)
}

// Config assembles a kernel.
type Config struct {
	// Models maps model names to simulated models. DefaultModel names the
	// one Pred uses; empty means the sole entry.
	Models       map[string]*model.Model
	DefaultModel string
	// FS sizes the KV file system. Zero value means kvfs.DefaultConfig
	// with the default model's KV footprint.
	FS kvfs.Config
	// KV configures the kernel KV memory daemon (internal/kvd): policy
	// name plus high/low watermarks. The zero value disables the daemon,
	// preserving the mechanism-only behaviour where programs see
	// ErrNoSpace and carry their own retry policy.
	KV kvd.Config
	// Disk configures the durable disk KV tier (internal/kvstore). The
	// zero value disables it, leaving the two-tier GPU/host hierarchy.
	Disk DiskConfig
	// Policy is ignored — New does not read it: the executor has no idle
	// batching window to configure (see package sched). The field stays
	// because the frozen benchmark/kernel.go sets it; the next benchmark PR
	// drops those three lines, then this field and sched.Policy go.
	Policy sched.Policy
	// PriorityPolicy orders each GPU iteration of the batch scheduler and
	// sets the per-call step quantum; nil means sched.DefaultLanes
	// (strict interactive/normal/batch lanes with aging). See
	// sched.NewPriorityPolicy for selection by name.
	PriorityPolicy sched.PriorityPolicy
	// PrefillChunk, when > 0, bounds the prefill tokens one pred call may
	// execute per GPU iteration independently of the priority policy's
	// quantum (see sched.Config.PrefillChunk). It is what keeps a monster
	// prompt from holding an iteration hostage under the fifo
	// run-to-completion policy.
	PrefillChunk int
	// Spec, when non-nil, enables executor-level speculative decoding for
	// decode runs (Ctx.PredDecode) against the default model: each GPU
	// iteration drafts a window of tokens on the named draft model and
	// verifies them inside the call's own step. See sched.SpecCall.
	Spec *SpecConfig
	// Prefix configures the kernel's radix prefix cache (prefixcache.go):
	// automatic cross-job KV deduplication of shared prompt prefixes. The
	// zero value disables it.
	Prefix PrefixConfig
	// Replicas is the number of simulated GPU executors behind the batch
	// scheduler; values < 1 mean one.
	Replicas int
	// Dispatcher routes pred calls across replicas; nil means
	// round-robin. See sched.NewDispatcher for selection by name.
	// Selecting *sched.CacheAffinityMigrate activates the kernel's
	// cross-replica KV migration engine (see migrate.go).
	Dispatcher sched.Dispatcher
	// Interconnect models the replica-to-replica fabric the migration
	// engine copies KV pages over; nil means netsim.DefaultInterconnect
	// (NVLink/IB-class). Ignored without a migration-aware dispatcher.
	Interconnect *netsim.Interconnect
	// MigrateThreshold is the home-overload factor above which the
	// migration engine moves a prefix family (default
	// DefaultMigrateThreshold). Ignored without a migration-aware
	// dispatcher.
	MigrateThreshold float64
	// Tokenizer, when non-nil, is shared with other systems so that token
	// IDs agree across a comparative experiment. Nil creates a fresh one.
	Tokenizer *token.Tokenizer
	// Tracer, when non-nil, records every process, pred, tool, and KV
	// migration span on the virtual timeline (§6's evaluation-space
	// instrumentation). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// UserQuotas caps the total pred tokens each named user may consume
	// across all of their processes (multi-tenant resource accounting,
	// §6). Users absent from the map are unlimited.
	UserQuotas map[string]int64
	// CrashCheck, when non-nil, lets a fault injector crash-restart GPU
	// replicas at iteration boundaries (see sched.Config.CrashCheck and
	// internal/chaos). The kernel hooks the crash to also invalidate the
	// dead replica's prefix-directory entries, so neither the migration
	// engine nor the prefix cache keeps serving state that no longer exists.
	CrashCheck func(replica int) bool
}

// SpecConfig configures executor-level speculative decoding: the
// promotion of internal/lip's draft/verify loop into the GPU step loop.
// It applies to decode runs submitted through Ctx.PredDecode against the
// default model; plain Pred prefills and explicitly-named models are
// never speculated.
type SpecConfig struct {
	// Draft names the registered model that proposes tokens. It must be
	// a different (cheaper) model than the default one.
	Draft string
	// Window is the constant draft window (sched.SpecCall.Window); zero
	// takes sched.DefaultSpecWindow.
	Window int
}

// DiskConfig configures the kernel's durable disk KV tier: a snapshot
// store of named KV prefixes that survives a (simulated) server restart
// and is re-prefilled from lazily, plus the third level the KV memory
// daemon demotes cold host pages to.
type DiskConfig struct {
	// Bytes bounds the disk tier; 0 disables it entirely.
	Bytes int64
	// HighWater is the *host*-tier usage fraction that starts host→disk
	// spilling (default 0.85); where it stops is kvd.Config.DiskLowWater
	// (default 0.60).
	HighWater float64
	// FS is the backing virtual file system. Nil means a fresh
	// kvstore.SimFS billed by the default model's cost model; restart
	// experiments pass one in so durable state carries across kernels
	// (the kernel re-binds it to its own clock).
	FS kvstore.VFS
}

// Kernel is a Symphony instance.
type Kernel struct {
	clk    *simclock.Clock
	models map[string]*model.Model
	defMod string
	fs     *kvfs.FS
	sch    *sched.Scheduler
	kvd    *kvd.Daemon
	disk   *kvfs.DiskTier // nil without a disk tier
	dir    *prefixIndex   // the one prefix→home directory (migrate.go)
	mig    *migrator      // nil without a migration-aware dispatcher
	pcache *prefixCache   // nil without the radix prefix cache
	spec   *SpecConfig    // nil without speculative decoding
	tok    *token.Tokenizer

	tracer *trace.Tracer

	mu        sync.Mutex
	tools     map[string]Tool
	procs     map[int]*Process
	nextPID   int
	quotas    map[string]int64
	userUsage map[string]int64

	spaceMu sync.Mutex
	spaceEv *simclock.Event // fired+replaced whenever KVFS frees GPU pages

	// syscall and accounting counters
	predCalls    metrics.Counter
	predTokens   metrics.Counter
	kvCalls      metrics.Counter
	toolCalls    metrics.Counter
	ipcMessages  metrics.Counter
	procsStarted metrics.Counter
	restoreTime  metrics.Counter // nanoseconds spent restoring offloaded KV

	// thread-state gauges (the upper scheduling level's view)
	gaugeMu    sync.Mutex
	running    int
	inferWait  int
	ioWait     int
	peakThread int
}

// New assembles and starts a kernel on clk.
func New(clk *simclock.Clock, cfg Config) *Kernel {
	if len(cfg.Models) == 0 {
		panic("core: no models configured")
	}
	def := cfg.DefaultModel
	if def == "" {
		if len(cfg.Models) != 1 {
			panic("core: DefaultModel required with multiple models")
		}
		for name := range cfg.Models {
			def = name
		}
	}
	if _, ok := cfg.Models[def]; !ok {
		panic("core: default model not in Models")
	}
	fsCfg := cfg.FS
	if fsCfg == (kvfs.Config{}) {
		fsCfg = kvfs.DefaultConfig()
		fsCfg.BytesPerToken = cfg.Models[def].Config().Cost.KVBytesPerToken
	}
	if cfg.Disk.Bytes > 0 {
		fsCfg.DiskBytes = cfg.Disk.Bytes
		cfg.KV.DiskHighWater = cfg.Disk.HighWater
	}
	costs := make(map[string]model.CostModel, len(cfg.Models))
	for name, m := range cfg.Models {
		costs[name] = m.Config().Cost
	}
	tok := cfg.Tokenizer
	if tok == nil {
		tok = token.NewTokenizer(token.NewVocab())
	}
	fs := kvfs.NewFS(fsCfg)
	daemon, err := kvd.New(clk, fs, costs[def], cfg.KV)
	if err != nil {
		panic(err)
	}
	var spec *SpecConfig
	if cfg.Spec != nil {
		// Speculation config errors are programmer errors, caught here
		// like the model-map ones above; the flag layer gives users the
		// friendly rejection (cmd/symphonyd).
		if _, ok := cfg.Models[cfg.Spec.Draft]; !ok {
			panic(fmt.Sprintf("core: spec draft model %q not in Models", cfg.Spec.Draft))
		}
		if cfg.Spec.Draft == def {
			panic("core: spec draft model is the default model")
		}
		if cfg.PriorityPolicy != nil && cfg.PriorityPolicy.Quantum() <= 0 {
			panic(fmt.Sprintf("core: speculative decoding requires an iteration-level priority policy (have %q)", cfg.PriorityPolicy.Name()))
		}
		s := *cfg.Spec
		spec = &s
	}
	schedCfg := sched.Config{
		Models:         costs,
		PriorityPolicy: cfg.PriorityPolicy,
		PrefillChunk:   cfg.PrefillChunk,
		Replicas:       cfg.Replicas,
		Dispatcher:     cfg.Dispatcher,
		CrashCheck:     cfg.CrashCheck,
	}
	k := &Kernel{
		clk:       clk,
		models:    cfg.Models,
		defMod:    def,
		fs:        fs,
		kvd:       daemon,
		spec:      spec,
		tok:       tok,
		dir:       newPrefixIndex(max(cfg.Replicas, 1)),
		tracer:    cfg.Tracer,
		tools:     make(map[string]Tool),
		procs:     make(map[int]*Process),
		quotas:    cfg.UserQuotas,
		userUsage: make(map[string]int64),
	}
	// What the crash hook reads — directory, migrator, prefix cache — is
	// assembled before sched.New starts the replica actors that may call it.
	k.pcache = newPrefixCache(k, cfg.Prefix)
	if _, ok := cfg.Dispatcher.(*sched.CacheAffinityMigrate); ok {
		ic := cfg.Interconnect
		if ic == nil {
			ic = netsim.DefaultInterconnect(clk)
		}
		k.mig = newMigrator(k, ic, cfg.MigrateThreshold)
	}
	schedCfg.OnCrash = k.replicaCrashed
	k.sch = sched.New(clk, schedCfg)
	k.spaceEv = clk.NewEvent()
	k.fs.SetReleaseHook(k.kvReleased)
	if cfg.Disk.Bytes > 0 {
		vfs := cfg.Disk.FS
		if vfs == nil {
			vfs = kvstore.NewSimFS(clk, costs[def])
		} else if b, ok := vfs.(interface{ Bind(*simclock.Clock) }); ok {
			// A VFS handed across restarts was billed against the previous
			// kernel's clock; re-attach it to this one.
			b.Bind(clk)
		}
		k.disk = kvfs.NewDiskTier(fs, kvstore.NewStore(vfs))
		daemon.AttachDisk(k.disk)
	}
	return k
}

// kvReleased broadcasts that GPU KV pages were freed: the current space
// event fires (waking every Ctx.KvWaitSpace) and a fresh one takes its
// place for future waiters.
func (k *Kernel) kvReleased() {
	k.spaceMu.Lock()
	ev := k.spaceEv
	k.spaceEv = k.clk.NewEvent()
	k.spaceMu.Unlock()
	ev.Fire()
}

// spaceEvent returns the event the next KvWaitSpace should park on.
func (k *Kernel) spaceEvent() *simclock.Event {
	k.spaceMu.Lock()
	defer k.spaceMu.Unlock()
	return k.spaceEv
}

// chargeUser enforces the user's aggregate token quota.
func (k *Kernel) chargeUser(user string, n int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if q, ok := k.quotas[user]; ok {
		if k.userUsage[user]+int64(n) > q {
			return fmt.Errorf("%w: user %s over quota %d", ErrQuota, user, q)
		}
	}
	k.userUsage[user] += int64(n)
	return nil
}

// UserUsage reports the total pred tokens charged to user so far.
func (k *Kernel) UserUsage(user string) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.userUsage[user]
}

// Clock returns the kernel's clock.
func (k *Kernel) Clock() *simclock.Clock { return k.clk }

// FS returns the KV file system (admin-side access; LIPs use Ctx).
func (k *Kernel) FS() *kvfs.FS { return k.fs }

// Scheduler returns the batch inference scheduler, for observability.
func (k *Kernel) Scheduler() *sched.Scheduler { return k.sch }

// KVD returns the KV memory daemon, or nil when disabled. The nil
// daemon's methods are safe no-ops.
func (k *Kernel) KVD() *kvd.Daemon { return k.kvd }

// DiskTier returns the durable disk KV tier, or nil when disabled.
func (k *Kernel) DiskTier() *kvfs.DiskTier { return k.disk }

// RecoverKV loads the newest durable snapshot generation from the disk
// tier and re-imports its named prefixes as disk-resident KV files: a
// warm restart. Each file is invisible to the GPU until a program opens
// it and a pred promotes it — paying an NVMe re-prefill or a recompute,
// whichever the cost model says is cheaper. Entries that no longer fit
// the disk tier are filtered on the snapshot index alone, without
// reading their payloads. Must run in a clock-actor context: snapshot
// reads bill virtual disk time. A corruption fallback (an older
// generation loaded, or none) is reported through err with the imported
// files still valid.
func (k *Kernel) RecoverKV() (files, tokens int, err error) {
	if k.disk == nil {
		return 0, 0, nil
	}
	pageTokens := k.fs.Config().PageTokens
	budget := k.fs.Stats().DiskPageCap - k.fs.Stats().DiskPages
	entries, rerr := k.disk.Store().Recover(func(rec kvstore.IndexRecord) bool {
		need := (int(rec.Tokens) + pageTokens - 1) / pageTokens
		if need > budget {
			return false
		}
		budget -= need
		return true
	})
	for _, e := range entries {
		f, ierr := k.disk.Import(e)
		if ierr != nil {
			// ErrExist (an earlier boot stage created the path) or a full
			// disk; the snapshot entry stays for the next commit to GC.
			continue
		}
		files++
		tokens += f.Len()
	}
	return files, tokens, rerr
}

// CheckpointKV writes every named KV file through the disk tier and
// commits a new snapshot generation, making the current named prefixes
// restart-durable. Files that no longer fit the disk tier are skipped
// (best effort), not fatal. Must run in a clock-actor context: the
// commit bills virtual disk write time to the caller.
func (k *Kernel) CheckpointKV() (files int, err error) {
	if k.disk == nil {
		return 0, nil
	}
	for _, path := range k.fs.List("") {
		f, oerr := k.fs.Open(path, kvfs.Admin, false)
		if oerr != nil {
			continue // removed since List
		}
		if perr := k.disk.Put(f); perr != nil {
			if errors.Is(perr, kvfs.ErrNoDisk) || errors.Is(perr, kvfs.ErrRemoved) {
				continue
			}
			return files, perr
		}
		files++
	}
	return files, k.disk.Commit()
}

// reclaimAttempts bounds the ErrNoSpace reclaim-retry loop. It is kept
// short deliberately: withReclaim runs with the caller's file pinned, so
// when nothing is evictable the caller should fail fast and break the
// hold-and-wait through self-preemption (see Ctx.PredModel) rather than
// wait here holding residency.
const (
	reclaimAttempts = 4
	reclaimWait     = time.Millisecond
)

// withReclaim runs op, and if it fails with KV-cache OOM while the KV
// memory daemon is enabled, reclaims cold files and retries. This is
// what makes GPU memory exhaustion invisible to programs on a
// daemon-managed kernel: allocations transparently evict instead of
// failing. Without a daemon, op's error surfaces unchanged (the
// mechanism-only behaviour programs like retryNoSpace build on).
func (k *Kernel) withReclaim(need int, op func() error) error {
	err := op()
	if !k.kvd.Enabled() {
		return err
	}
	for attempt := 0; errors.Is(err, kvfs.ErrNoSpace) && attempt < reclaimAttempts; attempt++ {
		if freed := k.kvd.Reclaim(need); freed == 0 {
			// Nothing evictable right now (all pinned, locked, or
			// shared): wait for someone to free pages, then retry.
			if _, werr := k.spaceEvent().WaitFor(reclaimWait); werr != nil {
				return werr
			}
		}
		err = op()
	}
	return err
}

// Model returns the named model, or the default one for name "".
func (k *Kernel) Model(name string) (*model.Model, error) {
	if name == "" {
		name = k.defMod
	}
	m, ok := k.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	return m, nil
}

// DefaultModelName returns the name Pred resolves "" to.
func (k *Kernel) DefaultModelName() string { return k.defMod }

// SpecDecode returns the speculative-decoding configuration, or nil when
// disabled.
func (k *Kernel) SpecDecode() *SpecConfig { return k.spec }

// RegisterTool makes a tool callable from LIPs.
func (k *Kernel) RegisterTool(name string, t Tool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.tools[name] = t
}

// Process looks up a live process by pid.
func (k *Kernel) Process(pid int) (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Stats is a snapshot of kernel counters.
type Stats struct {
	Processes   int64
	PredCalls   int64
	PredTokens  int64
	KVCalls     int64
	ToolCalls   int64
	IPCMessages int64
	RestoreTime time.Duration
	Sched       sched.Stats
	FS          kvfs.Stats
	KVD         kvd.Stats
	Migration   MigrationStats
	PrefixCache PrefixCacheStats
}

// Stats returns a snapshot of counters.
func (k *Kernel) Stats() Stats {
	return Stats{
		Processes:   k.procsStarted.Value(),
		PredCalls:   k.predCalls.Value(),
		PredTokens:  k.predTokens.Value(),
		KVCalls:     k.kvCalls.Value(),
		ToolCalls:   k.toolCalls.Value(),
		IPCMessages: k.ipcMessages.Value(),
		RestoreTime: time.Duration(k.restoreTime.Value()),
		Sched:       k.sch.Stats(),
		FS:          k.fs.Stats(),
		KVD:         k.kvd.Stats(),
		Migration:   k.mig.stats(),
		PrefixCache: k.pcache.stats(),
	}
}

// ThreadGauges reports the instantaneous two-level scheduler view: threads
// running LIP code, threads parked in the inference pool, and threads
// waiting on external I/O.
func (k *Kernel) ThreadGauges() (running, inferWait, ioWait, peak int) {
	k.gaugeMu.Lock()
	defer k.gaugeMu.Unlock()
	return k.running, k.inferWait, k.ioWait, k.peakThread
}

type threadState int

const (
	stateRunning threadState = iota
	stateInferWait
	stateIOWait
	stateDone
)

// gaugeDelta adjusts one thread-state gauge by d. Caller holds gaugeMu.
func (k *Kernel) gaugeDelta(s threadState, d int) {
	switch s {
	case stateRunning:
		k.running += d
	case stateInferWait:
		k.inferWait += d
	case stateIOWait:
		k.ioWait += d
	}
}

func (k *Kernel) gauge(from, to threadState) {
	k.gaugeMu.Lock()
	defer k.gaugeMu.Unlock()
	k.gaugeDelta(from, -1)
	k.gaugeDelta(to, +1)
	if t := k.running + k.inferWait + k.ioWait; t > k.peakThread {
		k.peakThread = t
	}
}

// Tokenizer returns the kernel's tokenizer. Token IDs are universal across
// the kernel's programs; experiments that compare several serving systems
// on one trace pass the same Tokenizer to all of them via Config.
func (k *Kernel) Tokenizer() *token.Tokenizer { return k.tok }
