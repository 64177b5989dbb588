// Package kvd implements the Symphony kernel's KV memory daemon: the
// policy half of memory pressure handling that KVFS (mechanism only,
// paper §4.2–4.3) deliberately leaves out.
//
// KVFS gives programs Offload/Restore between the GPU and host tiers but
// ships no eviction: on its own, a busy multi-tenant deployment that
// exhausts GPU pages simply fails allocations with ErrNoSpace. Every
// kernel runs a daemon, which closes that gap inside the kernel so no
// program needs a retry loop of its own to survive oversubscription:
//
//   - it tracks the KV files processes create and when each was last
//     touched;
//   - when GPU usage crosses a high-water mark it offloads unlocked,
//     un-pinned files to the host tier, least recently used first, until
//     usage falls to the low-water mark;
//   - offloaded files are restored transparently by the next pred on them
//     (the kernel already pays the PCIe time there), and the daemon keeps
//     the restore ledger the pressure experiments report;
//   - a KV syscall that still cannot allocate because every resident file
//     is pinned by a concurrent call swaps out what it holds (Preempt) and
//     retries, which is what breaks the hold-and-wait.
//
// The daemon runs inline on kernel allocation paths rather than as a
// polling actor: a periodic timer would keep the virtual clock from ever
// quiescing, and allocation time is exactly when pressure changes. Safety
// invariants: a file that is advisory-locked, or merely opened by another
// program (untracked), is never offloaded; a file an in-flight call has
// pinned (kvfs.File.Pin) is not a candidate, and KVFS itself refuses to
// move its pages down a tier, so no offload, swap or spill touches it.
//
// The eviction order is the daemon's only policy, and it is fixed: what
// must stay resident is the program's call (paper §2.1), made by holding
// the file's advisory lock, not a ranking the server guesses at.
package kvd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
)

// Config assembles a daemon. Its zero value is the only configuration.
type Config struct {
	// Policy names the eviction order: empty or "lru", the only one. Any
	// other name is an error.
	Policy string
}

// The watermarks are constants. Reclaim starts once GPU page usage
// reaches HighWater and drives it down to LowWater; spilling starts once
// host page usage reaches DiskHighWater (with a disk tier attached) and
// drives it down to DiskLowWater.
const (
	HighWater     = 0.90
	LowWater      = 0.75
	DiskHighWater = 0.85
	DiskLowWater  = 0.60
)

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
}

// Notify receives daemon events for one tracked file. Callbacks must not
// block and must not call back into the daemon.
type Notify func(Event)

// Stats is a snapshot of daemon counters. The disk-tier ledger is served
// in /v1/stats' "disk" block beside the file system's disk pages.
type Stats struct {
	// Policy is the eviction order's name, always "lru".
	Policy string `stats:"policy"`
	// HighWater and LowWater echo the GPU watermark constants.
	HighWater float64 `stats:"high_water"`
	LowWater  float64 `stats:"low_water"`
	// Pressure is the instantaneous GPU page usage fraction.
	Pressure float64 `stats:"pressure"`
	// Tracked is the number of live files under daemon management.
	Tracked int `stats:"tracked_files"`
	// Reclaims counts reclaim passes that offloaded at least one file.
	Reclaims int64 `stats:"reclaims"`
	// Offloads counts files offloaded; OffloadedTokens the KV tokens
	// moved GPU→host.
	Offloads        int64 `stats:"offloads"`
	OffloadedTokens int64 `stats:"offloaded_tokens"`
	// Restores counts evicted files transparently restored on a later
	// access; RestoredTokens the tokens moved host→GPU, and RestoredCost
	// the total PCIe time those restores charged — the price of evicting
	// files that turned out to still be needed.
	Restores       int64         `stats:"restores"`
	RestoredTokens int64         `stats:"restored_tokens"`
	RestoredCost   time.Duration `stats:"restored_cost,str"`
	// SwapRestores / SwapRestoredCost are the same ledger for
	// self-preemption swaps (a stalled pred giving back its own
	// residency): that cost is paid to break allocation standoffs and is
	// not the eviction order's doing.
	SwapRestores     int64         `stats:"swap_restores"`
	SwapRestoredCost time.Duration `stats:"swap_restored_cost,str"`
	// Preemptions counts self-preemption swaps: a stalled pred swapping
	// out its own residency to break an allocation standoff.
	Preemptions int64 `stats:"preemptions"`
	// Spills counts files demoted host→disk; SpilledTokens the KV tokens
	// moved, net of rollbacks. Spills are free of tensor-transfer time by
	// design: the snapshot store writes only token metadata, and the
	// write is billed when the store commits. SpillRollbacks counts
	// spills undone because the snapshot commit failed: their pages moved
	// back to host and were subtracted from SpilledTokens, so the ledger
	// never counts pages as disk-resident without a durable copy.
	Spills         int64 `stats:"/disk.spills"`
	SpilledTokens  int64 `stats:"/disk.spilled_tokens"`
	SpillRollbacks int64 `stats:"spill_rollbacks"`
	// DiskLoads / DiskLoadedTokens / DiskLoadCost record disk→GPU
	// re-prefills from the snapshot store and the NVMe+PCIe time charged
	// for them. DiskRecomputes and DiskRecomputedTokens are always zero:
	// the kernel loads a disk-resident prefix, never recomputes it. The
	// frozen benchmark/report.go reads DiskRecomputes and
	// benchmark/report_daemon.go its /v1/stats key; the next benchmark PR
	// drops those reads, then both fields go.
	DiskLoads        int64         `stats:"/disk.loads"`
	DiskLoadedTokens int64         `stats:"/disk.loaded_tokens"`
	DiskLoadCost     time.Duration `stats:"/disk.load_cost,str"`
	DiskRecomputes   int64         `stats:"/disk.recomputes"`
	//lint:allow testonly always 0; /v1/stats reports it beside disk.recomputes until the benchmark thaw drops both
	DiskRecomputedTokens int64 `stats:"/disk.recomputed_tokens"`
}

type entry struct {
	f      *kvfs.File
	seq    int64
	pid    int
	notify Notify

	lastAccess time.Duration
	// offloadReason is "evict" or "swap" while the daemon has moved the
	// file off the GPU and has not yet seen it restored, so each restore
	// is attributed to the decision that caused it; "" otherwise.
	offloadReason string
}

// Daemon is a KV memory daemon instance. All methods are safe for
// concurrent use.
type Daemon struct {
	clk *simclock.Clock
	fs  *kvfs.FS

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

// New assembles a daemon over fs. The cost model is unused: the
// eviction order reads no cost. A policy name other than "lru" is an
// error.
func New(clk *simclock.Clock, fs *kvfs.FS, _ model.CostModel, cfg Config) (*Daemon, error) {
	if cfg.Policy != "" && cfg.Policy != "lru" {
		return nil, fmt.Errorf("kvd: unknown eviction policy %q (only lru)", cfg.Policy)
	}
	return &Daemon{clk: clk, fs: fs, entries: make(map[*kvfs.File]*entry)}, nil
}

// AttachDisk gives the daemon a disk tier to demote into, enabling the
// host-watermark spill path. Call once at kernel assembly, before any
// traffic.
func (d *Daemon) AttachDisk(dt *kvfs.DiskTier) {
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
		fn(Event{Phase: phase, Tokens: tokens})
	}
}

// rollbackSpill is the disk tier's commit-failure hook: tokens of f's
// pages moved back host-ward because the snapshot generation that would
// have made them durable never landed. The spill ledger reverses and the
// owning process hears a "spill-rollback" kv_pressure event.
func (d *Daemon) rollbackSpill(f *kvfs.File, tokens int) {
	if tokens <= 0 {
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
	if tokens <= 0 {
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

// Track places a process-private file under daemon management. Files the
// daemon does not know about (e.g. shared files another program opened)
// are never offloaded.
func (d *Daemon) Track(f *kvfs.File, pid int, notify Notify) {
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
	d.entries[f] = &entry{f: f, seq: d.seq, pid: pid, notify: notify, lastAccess: now}
}

// Touch records an access to a tracked file (pred, fork source, …),
// refreshing the recency the eviction order ranks on.
func (d *Daemon) Touch(f *kvfs.File) {
	now := d.clk.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[f]; ok {
		e.lastAccess = now
	}
}

// ReleaseProcess detaches a finished process from the daemon: its
// entries drop their notify closures, releasing the Process and its
// event ring. Files the process leaked (never Removed) stay tracked as
// orphans, untouched from then on, so they grow cold and go early.
func (d *Daemon) ReleaseProcess(pid int) {
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

// NoteRestore attributes a transparent restore performed by the kernel
// (pred found the file off-GPU) to the daemon's ledger and notifies the
// owning process.
func (d *Daemon) NoteRestore(f *kvfs.File, tokens int, cost time.Duration) {
	if tokens <= 0 {
		return
	}
	d.mu.Lock()
	e, ok := d.entries[f]
	var fn Notify
	if ok && e.offloadReason != "" {
		switch e.offloadReason {
		case "swap":
			d.st.SwapRestores++
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
	st := d.fs.Stats()
	if st.GPUPageCap <= 0 || float64(st.GPUPages) < HighWater*float64(st.GPUPageCap) {
		return 0
	}
	target := st.GPUPages - int(LowWater*float64(st.GPUPageCap))
	return d.reclaim(target * st.PageTokens)
}

// Reclaim frees at least needTokens of GPU KV space if it can, on top of
// driving usage to the low-water mark when above it. The kernel calls it
// when an allocation fails outright (ErrNoSpace) before retrying.
func (d *Daemon) Reclaim(needTokens int) int {
	st := d.fs.Stats()
	if st.GPUPageCap > 0 {
		if over := st.GPUPages - int(LowWater*float64(st.GPUPageCap)); over*st.PageTokens > needTokens {
			needTokens = over * st.PageTokens
		}
	}
	return d.reclaim(needTokens)
}

// reclaim runs the GPU rung for needTokens and then lets demotion cascade
// one level down: GPU→host offloads are what grow the host tier, so the
// host watermark is checked right after them.
func (d *Daemon) reclaim(needTokens int) int {
	freed := d.demote(evictOffload, needTokens)
	d.maybeSpillHost()
	return freed
}

// rung is one step down the tier ladder. The tier a step starts from
// decides everything mechanical about it — which of a file's tokens
// count, which KVFS move runs and which ledger records it (see
// candidatesLocked and demoteFileLocked); a rung value adds how the step
// is reported.
type rung struct {
	from kvfs.Tier
	// phase is the Event.Phase the file's owner hears.
	phase string
	// reason is the offloadReason stamped on a file leaving the GPU, so
	// its eventual restore is attributed to the decision that caused it.
	reason string
}

var (
	evictOffload = rung{from: kvfs.GPU, phase: "offload", reason: "evict"}
	swapOffload  = rung{from: kvfs.GPU, phase: "offload", reason: "swap"}
	spillToDisk  = rung{from: kvfs.Host, phase: "spill"}
)

// demote moves candidates one rung down in eviction order until freed >=
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
	d.mu.Lock()
	freed := 0
	for _, e := range d.candidatesLocked(r) {
		if freed >= needTokens {
			break
		}
		n, err := d.demoteFileLocked(r, e)
		if n > 0 {
			freed += n
			fired = append(fired, moved{e.notify, n})
		}
		if r.from == kvfs.GPU && errors.Is(err, kvfs.ErrNoHost) {
			// Nothing frees host pages during the pass, so every later
			// offload would fail on its first page. A spill goes on: the
			// disk tier reserves per file, and a smaller one may fit.
			break
		}
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
// tokens moved and the move's error. Caller holds d.mu (and, for a spill,
// has checked d.disk).
func (d *Daemon) demoteFileLocked(r rung, e *entry) (n int, err error) {
	if r.from == kvfs.GPU {
		if n, err = e.f.Offload(); n > 0 {
			d.st.Offloads++
			d.st.OffloadedTokens += int64(n)
			e.offloadReason = r.reason
		}
	} else if n, err = d.disk.Spill(e.f); n > 0 {
		d.st.Spills++
		d.st.SpilledTokens += int64(n)
	}
	return n, err
}

// candidatesLocked lists the entries rung r may demote — tracked, not
// removed, not advisory-locked, not pinned, with tokens on the rung's
// tier — in eviction order: least recently accessed first, tracking seq
// breaking ties so the order never depends on map iteration. It also
// garbage-collects entries for removed files. Caller holds d.mu.
func (d *Daemon) candidatesLocked(r rung) []*entry {
	var cands []*entry
	for f, e := range d.entries {
		if f.Removed() {
			delete(d.entries, f)
			continue
		}
		if f.Pins() > 0 || f.LockedBy() != "" {
			continue
		}
		tokens, host, _ := f.ResidentTokens()
		if r.from == kvfs.Host {
			tokens = host
		}
		if tokens == 0 {
			continue
		}
		cands = append(cands, e)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.lastAccess != b.lastAccess {
			return a.lastAccess < b.lastAccess
		}
		return a.seq < b.seq
	})
	return cands
}

// maybeSpillHost checks the host-tier watermark and, when crossed and a
// disk tier is attached, spills cold host-resident files down to disk
// until host usage falls to DiskLowWater. Demotion cascades one level at
// a time, and the host rung ranks its files in the same order as the GPU
// rung.
func (d *Daemon) maybeSpillHost() {
	d.mu.Lock()
	dt := d.disk
	d.mu.Unlock()
	if dt == nil {
		return
	}
	st := d.fs.Stats()
	if st.HostPageCap <= 0 || float64(st.HostPages) < DiskHighWater*float64(st.HostPageCap) {
		return
	}
	target := st.HostPages - int(DiskLowWater*float64(st.HostPageCap))
	d.demote(spillToDisk, target*st.PageTokens)
}

// Preempt offloads f immediately on behalf of a stalled KV syscall on it
// (vLLM-style swap-out: a call that cannot get GPU pages gives back its
// residency, waits, and restores on retry), unless another in-flight
// call has it pinned (KVFS then moves nothing) or it is advisory-locked.
// It returns the tokens moved and counts one preemption.
func (d *Daemon) Preempt(f *kvfs.File) int {
	d.mu.Lock()
	e, ok := d.entries[f]
	if !ok || f.LockedBy() != "" {
		d.mu.Unlock()
		return 0
	}
	n, _ := d.demoteFileLocked(swapOffload, e)
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
	pressure := d.Pressure()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweepRemovedLocked() // Tracked counts live files, not removed ones
	st := d.st
	st.Policy, st.HighWater, st.LowWater = "lru", HighWater, LowWater
	st.Pressure, st.Tracked = pressure, len(d.entries)
	return st
}
