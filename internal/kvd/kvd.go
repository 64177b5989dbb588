// Package kvd implements the Symphony kernel's KV memory daemon: the
// policy half of memory pressure handling that KVFS (mechanism only,
// paper §4.2–4.3) deliberately leaves out.
//
// KVFS gives programs Offload/Restore between the GPU and host tiers but
// ships no eviction: a busy multi-tenant deployment that exhausts GPU
// pages simply fails allocations with ErrNoSpace. The daemon closes that
// gap inside the kernel so every workload — not just programs that carry
// their own retry loops — survives oversubscription:
//
//   - it tracks the KV files processes create, with recency, frequency,
//     and model.CostModel-derived restore/recompute estimates per file;
//   - when GPU usage crosses a high-water mark it offloads cold, unlocked,
//     un-pinned files to the host tier under a pluggable policy (lru, lfu,
//     or cost-aware) until usage falls to the low-water mark;
//   - offloaded files are restored transparently by the next pred on them
//     (the kernel already pays the PCIe time there), and the daemon keeps
//     the restore ledger the pressure experiments report;
//   - a pred that still cannot allocate because every resident file is
//     pinned by a concurrent pred swaps out its own file (Preempt) and
//     retries, which is what breaks the hold-and-wait.
//
// The daemon runs inline on kernel allocation paths rather than as a
// polling actor: a periodic timer would keep the virtual clock from ever
// quiescing, and allocation time is exactly when pressure changes. Safety
// invariants: a file that is advisory-locked, pinned by an in-flight
// pred, or merely opened by another program (untracked) is never
// offloaded.
package kvd

import (
	"sort"
	"sync"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
)

// Config assembles a daemon. The zero value is disabled.
type Config struct {
	// Policy names the eviction policy (see PolicyNames). Empty or "none"
	// disables the daemon entirely: allocation failures surface to
	// programs as before.
	Policy string
	// HighWater is the GPU page usage fraction that triggers reclaim
	// (default 0.90).
	HighWater float64
	// LowWater is the usage fraction reclaim drives down to (default
	// HighWater − 0.15).
	LowWater float64
	// DiskHighWater is the *host* page usage fraction that triggers
	// spilling cold host-resident files down to the disk tier (default
	// 0.85). Spilling needs a disk tier: it is inert until AttachDisk.
	DiskHighWater float64
	// DiskLowWater is the host usage fraction spilling drives down to
	// (default 0.60).
	DiskLowWater float64
}

// Enabled reports whether the configuration selects an active daemon.
func (c Config) Enabled() bool { return c.Policy != "" && c.Policy != "none" }

// withDefaults fills unset watermarks.
func (c Config) withDefaults() Config {
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.90
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = c.HighWater - 0.15
		if c.LowWater < 0 {
			c.LowWater = 0
		}
	}
	if c.DiskHighWater <= 0 || c.DiskHighWater > 1 {
		c.DiskHighWater = 0.85
	}
	if c.DiskLowWater <= 0 || c.DiskLowWater >= c.DiskHighWater {
		c.DiskLowWater = 0.60
		if c.DiskLowWater >= c.DiskHighWater {
			c.DiskLowWater = c.DiskHighWater / 2
		}
	}
	return c
}

// Event describes a daemon action on one tracked file, delivered to the
// owning process through the notify callback registered at Track time
// (the kernel republishes it as a kv_pressure process event).
type Event struct {
	// Phase is "offload", "restore", "spill" (host→disk demotion),
	// "spill-rollback" (a spill undone because its snapshot commit
	// failed), or "load" (disk→GPU re-prefill).
	Phase string
	// Tokens is the number of KV tokens moved.
	Tokens int
	// Policy is the active eviction policy name.
	Policy string
}

// Notify receives daemon events for one tracked file. Callbacks must not
// block and must not call back into the daemon.
type Notify func(Event)

// Stats is a snapshot of daemon counters.
type Stats struct {
	Policy    string
	HighWater float64
	LowWater  float64
	// Pressure is the instantaneous GPU page usage fraction.
	Pressure float64
	// Tracked is the number of live files under daemon management.
	Tracked int
	// Reclaims counts reclaim passes that offloaded at least one file.
	Reclaims int64
	// Offloads counts files offloaded; OffloadedTokens the KV tokens
	// moved GPU→host.
	Offloads        int64
	OffloadedTokens int64
	// Restores counts policy-evicted files transparently restored on a
	// later access; RestoredTokens the tokens moved host→GPU, and
	// RestoredCost the total PCIe time those restores charged — the
	// price of the eviction policy picking files that turned out to
	// still be needed, the figure of merit policies compete on.
	Restores       int64
	RestoredTokens int64
	RestoredCost   time.Duration
	// SwapRestores / SwapRestoredTokens / SwapRestoredCost are the same
	// ledger for self-preemption swaps (a stalled pred giving back its
	// own residency): that cost is paid to break allocation standoffs
	// and is not the eviction policy's doing.
	SwapRestores       int64
	SwapRestoredTokens int64
	SwapRestoredCost   time.Duration
	// Preemptions counts self-preemption swaps: a stalled pred swapping
	// out its own residency to break an allocation standoff.
	Preemptions int64
	// Migrations / MigratedTokens / MigratedCost are the cross-replica
	// ledger: files the kernel's migration engine copied between replicas
	// over the interconnect (source pages freed after the copy), the KV
	// tokens moved, and the fabric time charged for them.
	Migrations     int64
	MigratedTokens int64
	MigratedCost   time.Duration
	// Spills counts files demoted host→disk; SpilledTokens the KV tokens
	// moved, net of rollbacks. Spills are free of tensor-transfer time by
	// design: the snapshot store writes only token metadata, and the
	// write is billed when the store commits. SpillRollbacks counts
	// spills undone because the snapshot commit failed: their pages moved
	// back to host and were subtracted from SpilledTokens, so the ledger
	// never counts pages as disk-resident without a durable copy.
	Spills         int64
	SpilledTokens  int64
	SpillRollbacks int64
	// DiskLoads / DiskLoadedTokens / DiskLoadCost record disk→GPU
	// re-prefills from the snapshot store and the NVMe+PCIe time charged
	// for them; DiskRecomputes / DiskRecomputedTokens count the times the
	// kernel instead chose to recompute a disk-resident prefix because
	// prefill was estimated cheaper than the load.
	DiskLoads            int64
	DiskLoadedTokens     int64
	DiskLoadCost         time.Duration
	DiskRecomputes       int64
	DiskRecomputedTokens int64
}

type entry struct {
	f      *kvfs.File
	seq    int64
	pid    int
	notify Notify

	lastAccess time.Duration
	accesses   int64
	pins       int
	// offloadReason is "policy" or "swap" while the daemon has moved the
	// file off the GPU and has not yet seen it restored, so each restore
	// is attributed to the decision that caused it; "" otherwise.
	offloadReason string
}

// Daemon is a KV memory daemon instance. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so a kernel without a
// daemon pays only nil checks.
type Daemon struct {
	clk    *simclock.Clock
	fs     *kvfs.FS
	cost   model.CostModel
	policy Policy
	cfg    Config

	mu      sync.Mutex
	disk    *kvfs.DiskTier // nil until AttachDisk
	seq     int64
	entries map[*kvfs.File]*entry
	sinceGC int // Tracks since the last entry sweep

	// st holds the counters Stats reports, bumped in place under mu; the
	// configuration echo and the Pressure and Tracked gauges are filled in
	// at snapshot.
	st Stats
}

// New assembles a daemon over fs, costing restores and recomputes with
// the default model's cost model. A disabled config returns (nil, nil):
// the nil daemon is a valid no-op.
func New(clk *simclock.Clock, fs *kvfs.FS, cost model.CostModel, cfg Config) (*Daemon, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		clk:     clk,
		fs:      fs,
		cost:    cost,
		policy:  pol,
		cfg:     cfg.withDefaults(),
		entries: make(map[*kvfs.File]*entry),
	}, nil
}

// Enabled reports whether the daemon is active.
func (d *Daemon) Enabled() bool { return d != nil }

// PolicyName reports the active eviction policy name, or "none".
func (d *Daemon) PolicyName() string {
	if d == nil {
		return "none"
	}
	return d.policy.Name()
}

// Config returns the daemon's effective configuration.
func (d *Daemon) Config() Config {
	if d == nil {
		return Config{}
	}
	return d.cfg
}

// AttachDisk gives the daemon a disk tier to demote into, enabling the
// host-watermark spill path. Call once at kernel assembly, before any
// traffic.
func (d *Daemon) AttachDisk(dt *kvfs.DiskTier) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.disk = dt
	d.mu.Unlock()
	// Registered outside d.mu: the hook itself takes d.mu when a failed
	// commit fires it.
	dt.SetSpillRollback(d.rollbackSpill)
}

// notify delivers one daemon event to a tracked file's owner (fn is the
// entry's callback, nil for ownerless files). It must be called without
// d.mu held: the callback publishes to the process's subscribers.
func (d *Daemon) notify(fn Notify, phase string, tokens int) {
	if fn != nil {
		fn(Event{Phase: phase, Tokens: tokens, Policy: d.policy.Name()})
	}
}

// rollbackSpill is the disk tier's commit-failure hook: tokens of f's
// pages moved back host-ward because the snapshot generation that would
// have made them durable never landed. The spill ledger reverses and the
// owning process hears a "spill-rollback" kv_pressure event.
func (d *Daemon) rollbackSpill(f *kvfs.File, tokens int) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	d.st.SpillRollbacks++
	d.st.SpilledTokens -= int64(tokens)
	var fn Notify
	if e, ok := d.entries[f]; ok {
		fn = e.notify
	}
	d.mu.Unlock()
	d.notify(fn, "spill-rollback", tokens)
}

// NoteDiskLoad attributes a disk→GPU re-prefill performed by the kernel
// to the daemon ledger and notifies the owning process.
func (d *Daemon) NoteDiskLoad(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	d.st.DiskLoads++
	d.st.DiskLoadedTokens += int64(tokens)
	d.st.DiskLoadCost += cost
	var fn Notify
	if e, ok := d.entries[f]; ok {
		e.offloadReason = ""
		fn = e.notify
	}
	d.mu.Unlock()
	d.notify(fn, "load", tokens)
}

// NoteDiskRecompute records that the kernel chose to recompute a
// disk-resident prefix (prefill estimated cheaper than the NVMe load).
func (d *Daemon) NoteDiskRecompute(f *kvfs.File, tokens int) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.DiskRecomputes++
	d.st.DiskRecomputedTokens += int64(tokens)
	if e, ok := d.entries[f]; ok {
		e.offloadReason = ""
	}
}

// Track places a process-private file under daemon management. Files the
// daemon does not know about (e.g. shared files another program opened)
// are never offloaded.
func (d *Daemon) Track(f *kvfs.File, pid int, notify Notify) {
	if d == nil || f == nil {
		return
	}
	now := d.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[f]; ok {
		return
	}
	// Amortized sweep: the reclaim path only garbage-collects under
	// pressure, so a server that never crosses the high-water mark must
	// still shed entries (and their notify closures) for removed files.
	if d.sinceGC++; d.sinceGC >= 64 {
		d.sinceGC = 0
		d.sweepRemovedLocked()
	}
	d.seq++
	d.entries[f] = &entry{f: f, seq: d.seq, pid: pid, notify: notify, lastAccess: now, accesses: 1}
}

// Touch records an access to a tracked file (pred, fork source, …),
// refreshing the recency and frequency signals policies rank on.
func (d *Daemon) Touch(f *kvfs.File) {
	if d == nil {
		return
	}
	now := d.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		e.lastAccess = now
		e.accesses++
	}
}

// ReleaseProcess detaches a finished process from the daemon: its
// entries drop their notify closures, releasing the Process and its
// event ring. Files the process leaked (never Removed) stay tracked as
// orphans — cold garbage the eviction policies reap first.
func (d *Daemon) ReleaseProcess(pid int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for f, e := range d.entries {
		if e.pid != pid {
			continue
		}
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		e.pid = 0
		e.notify = nil
	}
}

// Pin marks a file in-flight (a pred is using it); pinned files are
// never offloaded. Pins nest.
func (d *Daemon) Pin(f *kvfs.File) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		e.pins++
	}
}

// Unpin releases a Pin.
func (d *Daemon) Unpin(f *kvfs.File) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok && e.pins > 0 {
		e.pins--
	}
}

// Pins reports the file's current in-flight pin count (0 for files the
// daemon does not track). The migration engine uses it to refuse moving
// a file another pred is using right now.
func (d *Daemon) Pins(f *kvfs.File) int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		return e.pins
	}
	return 0
}

// NoteMigrate records a cross-replica migration in the daemon ledger:
// tokens of KV copied over the interconnect in cost fabric time, with
// the source replica's pages freed once the copy landed. The owning
// process hears about it through the kernel's kv_migrate event, not the
// daemon's notify channel.
func (d *Daemon) NoteMigrate(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.Migrations++
	d.st.MigratedTokens += int64(tokens)
	d.st.MigratedCost += cost
	if e, ok := d.entries[f]; ok {
		// A migrated file arrives hot on its new replica.
		e.lastAccess = d.clk.Now()
	}
}

// NoteRestore attributes a transparent restore performed by the kernel
// (pred found the file off-GPU) to the daemon's ledger and notifies the
// owning process.
func (d *Daemon) NoteRestore(f *kvfs.File, tokens int, cost time.Duration) {
	if d == nil || tokens <= 0 {
		return
	}
	d.mu.Lock()
	e, ok := d.entries[f]
	var fn Notify
	if ok && e.offloadReason != "" {
		switch e.offloadReason {
		case "swap":
			d.st.SwapRestores++
			d.st.SwapRestoredTokens += int64(tokens)
			d.st.SwapRestoredCost += cost
		default:
			d.st.Restores++
			d.st.RestoredTokens += int64(tokens)
			d.st.RestoredCost += cost
		}
		e.offloadReason = ""
		fn = e.notify
	}
	d.mu.Unlock()
	d.notify(fn, "restore", tokens)
}

// Pressure reports the instantaneous GPU page usage fraction.
func (d *Daemon) Pressure() float64 {
	if d == nil {
		return 0
	}
	st := d.fs.Stats()
	if st.GPUPageCap <= 0 {
		return 0
	}
	return float64(st.GPUPages) / float64(st.GPUPageCap)
}

// MaybeReclaim checks the high-water mark and, when crossed, offloads
// cold files until usage falls to the low-water mark. It returns the
// tokens freed. The kernel calls it on allocation paths (every pred), so
// pressure is handled where it is created.
func (d *Daemon) MaybeReclaim() int {
	if d == nil {
		return 0
	}
	st := d.fs.Stats()
	if st.GPUPageCap <= 0 || float64(st.GPUPages) < d.cfg.HighWater*float64(st.GPUPageCap) {
		return 0
	}
	target := st.GPUPages - int(d.cfg.LowWater*float64(st.GPUPageCap))
	return d.reclaim(target * st.PageTokens)
}

// Reclaim frees at least needTokens of GPU KV space if it can, on top of
// driving usage to the low-water mark when above it. The kernel calls it
// when an allocation fails outright (ErrNoSpace) before retrying.
func (d *Daemon) Reclaim(needTokens int) int {
	if d == nil {
		return 0
	}
	st := d.fs.Stats()
	if st.GPUPageCap > 0 {
		if over := st.GPUPages - int(d.cfg.LowWater*float64(st.GPUPageCap)); over*st.PageTokens > needTokens {
			needTokens = over * st.PageTokens
		}
	}
	return d.reclaim(needTokens)
}

// reclaim runs the GPU rung for needTokens and then lets demotion cascade
// one level down: GPU→host offloads are what grow the host tier, so the
// host watermark is checked right after them.
func (d *Daemon) reclaim(needTokens int) int {
	freed := d.demote(policyOffload, needTokens)
	d.maybeSpillHost()
	return freed
}

// rung is one step down the tier ladder. The tier a step starts from
// decides everything mechanical about it — which of a file's tokens
// count, what bringing them back would cost, which KVFS move runs and
// which ledger records it (see candidatesLocked and demoteFileLocked); a
// rung value adds how the step is reported.
type rung struct {
	from kvfs.Tier
	// phase is the Event.Phase the file's owner hears.
	phase string
	// reason is the offloadReason stamped on a file leaving the GPU, so
	// its eventual restore is attributed to the decision that caused it.
	reason string
}

var (
	policyOffload = rung{from: kvfs.GPU, phase: "offload", reason: "policy"}
	swapOffload   = rung{from: kvfs.GPU, phase: "offload", reason: "swap"}
	spillToDisk   = rung{from: kvfs.Host, phase: "spill"}
)

// demote moves candidates one rung down in policy order until freed >=
// needTokens or candidates run out, then fires the owner notifications.
// Every move is metadata-only (PCIe time is charged at restore, the
// store write at the next commit), so it is safe on any allocation path.
func (d *Daemon) demote(r rung, needTokens int) int {
	if needTokens <= 0 {
		return 0
	}
	type moved struct {
		fn     Notify
		tokens int
	}
	var fired []moved
	now := d.clk.Now()
	d.mu.Lock()
	cands := d.candidatesLocked(r)
	freed := 0
	for _, i := range d.policy.Rank(now, cands) {
		if freed >= needTokens {
			break
		}
		e := d.entries[cands[i].File]
		n := d.demoteFileLocked(r, e)
		if n == 0 {
			continue // nothing demotable, or the tier below is full: try the next one
		}
		freed += n
		fired = append(fired, moved{e.notify, n})
	}
	if r.from == kvfs.GPU && freed > 0 {
		d.st.Reclaims++
	}
	d.mu.Unlock()
	for _, m := range fired {
		d.notify(m.fn, r.phase, m.tokens)
	}
	return freed
}

// demoteFileLocked moves one file's pages a rung down and records the
// move — the one place the offload and spill ledgers are bumped. A GPU
// offload that stops part-way on a full host tier still counts for what
// it moved; a spill the disk tier refuses moves nothing. Returns the
// tokens moved. Caller holds d.mu (and, for a spill, has checked d.disk).
func (d *Daemon) demoteFileLocked(r rung, e *entry) (n int) {
	if r.from == kvfs.GPU {
		if n, _ = e.f.Offload(); n > 0 {
			d.st.Offloads++
			d.st.OffloadedTokens += int64(n)
			e.offloadReason = r.reason
		}
	} else if n, _ = d.disk.Spill(e.f); n > 0 {
		d.st.Spills++
		d.st.SpilledTokens += int64(n)
	}
	return n
}

// candidatesLocked snapshots the files rung r may demote: tracked, not
// removed, not advisory-locked, not pinned, with tokens on the rung's
// tier. Tokens counts that tier only, and RestoreCost describes the way
// back from the tier below — PCIe from host, NVMe read plus PCIe from
// disk — so cost-aware policies weigh the deeper demotion correctly. It
// also garbage-collects entries for removed files. The snapshot is sorted
// by tracking seq so the policy ranks an identical slice on every run
// regardless of map iteration order (rankBy is stable, so the input order
// is the tie-break of last resort). Caller holds d.mu.
func (d *Daemon) candidatesLocked(r rung) []FileInfo {
	var infos []FileInfo
	for f, e := range d.entries {
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		if e.pins > 0 || f.LockedBy() != "" {
			continue
		}
		tokens, host, _ := f.ResidentTokens()
		restore := d.cost.TransferTime(tokens)
		if r.from == kvfs.Host {
			tokens, restore = host, d.cost.DiskLoadTime(host)
		}
		if tokens == 0 {
			continue
		}
		infos = append(infos, FileInfo{
			File:          f,
			Seq:           e.seq,
			PID:           e.pid,
			LastAccess:    e.lastAccess,
			Accesses:      e.accesses,
			Tokens:        tokens,
			RestoreCost:   restore,
			RecomputeCost: d.cost.KernelOverhead + d.cost.PerSequence + time.Duration(f.Len())*d.cost.PerToken,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	return infos
}

// maybeSpillHost checks the host-tier watermark and, when crossed and a
// disk tier is attached, spills cold host-resident files down to disk
// until host usage falls to DiskLowWater. Demotion cascades one level at
// a time, cost-aware because the same policy that picked the coldest GPU
// files picks the coldest host files.
func (d *Daemon) maybeSpillHost() {
	d.mu.Lock()
	dt := d.disk
	d.mu.Unlock()
	if dt == nil {
		return
	}
	st := d.fs.Stats()
	if st.HostPageCap <= 0 || float64(st.HostPages) < d.cfg.DiskHighWater*float64(st.HostPageCap) {
		return
	}
	target := st.HostPages - int(d.cfg.DiskLowWater*float64(st.HostPageCap))
	d.demote(spillToDisk, target*st.PageTokens)
}

// Preempt offloads f immediately on behalf of its own stalled pred
// (vLLM-style swap-out: a call that cannot get GPU pages gives back its
// residency, waits, and restores on retry), unless another in-flight
// call has it pinned or it is advisory-locked. It returns the tokens
// moved and counts one preemption.
func (d *Daemon) Preempt(f *kvfs.File) int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	e, ok := d.entries[f]
	if !ok || e.pins > 0 || f.Removed() || f.LockedBy() != "" {
		d.mu.Unlock()
		return 0
	}
	n := d.demoteFileLocked(swapOffload, e)
	if n > 0 {
		d.st.Preemptions++
	}
	fn := e.notify
	d.mu.Unlock()
	if n > 0 {
		d.notify(fn, swapOffload.phase, n)
		d.maybeSpillHost()
	}
	return n
}

// sweepRemovedLocked drops the entries of removed files. Caller holds
// d.mu.
func (d *Daemon) sweepRemovedLocked() {
	for f := range d.entries {
		if f.Removed() {
			delete(d.entries, f)
		}
	}
}

// Stats returns a snapshot of counters.
func (d *Daemon) Stats() Stats {
	if d == nil {
		return Stats{Policy: "none"}
	}
	pressure := d.Pressure()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweepRemovedLocked() // Tracked counts live files, not removed ones
	st := d.st
	st.Policy, st.HighWater, st.LowWater = d.policy.Name(), d.cfg.HighWater, d.cfg.LowWater
	st.Pressure, st.Tracked = pressure, len(d.entries)
	return st
}
