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
	// name plus high/low watermarks. Every kernel runs the daemon; the
	// zero value is lru at the default watermarks.
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
	// PrefillChunk is ignored — New does not read it: the priority
	// policy's quantum is the one bound on a call's prompt slice
	// (sched.FIFO.SliceTokens for chunked prefill under fifo). The field
	// stays because the frozen benchmark/kernel.go sets it; the next
	// benchmark PR drops those lines, then this field goes.
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
	// Tokenizer, when non-nil, is shared with other systems so that token
	// IDs agree across a comparative experiment. Nil creates a fresh one.
	Tokenizer *token.Tokenizer
	// Tracer, when non-nil, records every process, pred, tool, and KV
	// migration span on the virtual timeline (§6's evaluation-space
	// instrumentation). Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// CrashCheck, when non-nil, lets a fault injector crash-restart GPU
	// replicas at iteration boundaries (see sched.Config.CrashCheck and
	// internal/chaos). The kernel hooks the crash to also invalidate the
	// dead replica's prefix-directory entries, so neither the migration
	// engine nor the prefix cache keeps serving state that no longer exists.
	CrashCheck func(replica int) bool
}

// DefaultConfig returns the kernel every front end starts from: the
// simulated Llama-13B as default model beside draft-1b, a draft that
// greedily agrees with it on 85% of positions, for Spec to name.
func DefaultConfig() Config {
	target := model.New(model.Llama13B())
	return Config{
		Models: map[string]*model.Model{
			"llama-13b": target,
			"draft-1b":  model.New(model.AlignedDraft(target, 0.85)),
		},
		DefaultModel: "llama-13b",
	}
}

// SpecConfig configures executor-level speculative decoding: the
// promotion of internal/lip's draft/verify loop into the GPU step loop.
// It applies to decode runs submitted through Ctx.PredDecode against the
// default model; plain Pred prefills and explicitly-named models are
// never speculated.
type SpecConfig struct {
	// Draft names the registered model that proposes tokens. It must be
	// a different (cheaper) model than the default one. Every round
	// drafts sched.DefaultSpecWindow tokens.
	Draft string
}

// DiskConfig configures the kernel's durable disk KV tier: a snapshot
// store of named KV prefixes that survives a (simulated) server restart
// and is re-prefilled from lazily, plus the third level the KV memory
// daemon demotes cold host pages to.
type DiskConfig struct {
	// Bytes bounds the disk tier; 0 disables it entirely. Host→disk
	// spilling starts at kvd.DiskHighWater host usage and stops at
	// kvd.DiskLowWater.
	Bytes int64
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
	userUsage map[string]int64

	// kvReleased is broadcast by KVFS's release hook and by Process.Cancel;
	// the space gate's holder and KvLock's waiters park on it.
	kvReleased *simclock.Signal
	// spaceGate admits one pred at a time, in the order their allocations
	// failed, to the swap-and-wait that breaks a full GPU tier's standoff.
	spaceGate *simclock.Semaphore

	// syscall and accounting counters
	predCalls    metrics.Counter
	predTokens   metrics.Counter
	kvCalls      metrics.Counter
	toolCalls    metrics.Counter
	ipcMessages  metrics.Counter
	procsStarted metrics.Counter
	restoreTime  metrics.Counter // nanoseconds spent restoring offloaded KV
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
		s := *cfg.Spec
		spec = &s
	}
	schedCfg := sched.Config{
		Models:         costs,
		PriorityPolicy: cfg.PriorityPolicy,
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
		dir:       newPrefixIndex(fs, max(cfg.Replicas, 1)),
		tracer:    cfg.Tracer,
		tools:     make(map[string]Tool),
		procs:     make(map[int]*Process),
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
		k.mig = newMigrator(k, ic)
	}
	schedCfg.OnCrash = k.replicaCrashed
	k.sch = sched.New(clk, schedCfg)
	k.kvReleased = clk.NewSignal()
	k.spaceGate = clk.NewSemaphore(1)
	k.fs.SetReleaseHook(k.kvReleased.Broadcast)
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

// chargeUser adds n pred tokens to the user's usage across processes.
func (k *Kernel) chargeUser(user string, n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.userUsage[user] += int64(n)
}

// UserUsage reports the total pred tokens charged to user so far.
func (k *Kernel) UserUsage(user string) int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.userUsage[user]
}

// Clock returns the kernel's clock.
//
//lint:allow testonly library surface: examples/ragcache_test.go drives the kernel's clock
func (k *Kernel) Clock() *simclock.Clock { return k.clk }

// FS returns the KV file system (admin-side access; LIPs use Ctx).
//
//lint:allow testonly a test oracle: tests inspect KV files from outside any process through it
func (k *Kernel) FS() *kvfs.FS { return k.fs }

// Scheduler returns the batch inference scheduler, for observability.
func (k *Kernel) Scheduler() *sched.Scheduler { return k.sch }

// RecoverKV loads the newest durable snapshot generation from the disk
// tier and re-imports its named prefixes as disk-resident KV files: a
// warm restart. Each file is invisible to the GPU until a program opens
// it and a pred promotes it, paying the NVMe read plus PCIe of a disk
// load (CostModel.DiskLoadTime). Entries that no longer fit the disk
// tier are filtered on the snapshot index alone, without reading their
// payloads. Must run in a clock-actor context: snapshot
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

// withReclaim runs op, and if it fails with KV-cache OOM, has the memory
// daemon reclaim cold files and, if that freed any GPU space, runs it
// once more: allocations evict instead of failing. It never waits — the
// caller's files are pinned here, so when nothing is evictable the call
// at the head of the space gate breaks the standoff instead (see
// Ctx.allocUnderPressure) — so the scheduler's resume hook calls it on
// the replica actor too.
func (k *Kernel) withReclaim(need int, op func() error) error {
	err := op()
	if !errors.Is(err, kvfs.ErrNoSpace) {
		return err
	}
	if k.kvd.Reclaim(need) == 0 {
		return err
	}
	return op()
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

// Stats is a snapshot of kernel counters. Each field's stats tag is how
// the server's /v1/stats serves it (docs/STATS.md); the kernel structs
// below it carry the same tags.
type Stats struct {
	Processes   int64            `stats:"processes"`
	PredCalls   int64            `stats:"pred_calls"`
	PredTokens  int64            `stats:"pred_tokens"`
	KVCalls     int64            `stats:"kv_calls"`
	ToolCalls   int64            `stats:"tool_calls"`
	IPCMessages int64            `stats:"ipc_messages"`
	RestoreTime time.Duration    `stats:"-"`
	Sched       sched.Stats      `stats:""`
	FS          kvfs.Stats       `stats:""`
	KVD         kvd.Stats        `stats:"kvd"`
	Migration   MigrationStats   `stats:"migration"`
	PrefixCache PrefixCacheStats `stats:"prefix_cache"`
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

// Tokenizer returns the kernel's tokenizer. Token IDs are universal across
// the kernel's programs; experiments that compare several serving systems
// on one trace pass the same Tokenizer to all of them via Config.
//
//lint:allow testonly library surface: examples/ builds constraint lexicons from the kernel's tokenizer
func (k *Kernel) Tokenizer() *token.Tokenizer { return k.tok }
