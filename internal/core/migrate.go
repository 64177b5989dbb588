package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the kernel's cross-replica KV migration engine, active
// when the batch scheduler dispatches with cache-affinity-migrate.
//
// Cache-affinity dispatch (PR 1) pins every fork family to the replica
// that first computed its prefix. That preserves KV locality but turns a
// hot shared prefix into a replica hotspot: every family whose root
// hashes there queues behind it while other replicas idle. The engine
// un-strands those prefixes the way an OS migrates pages between NUMA
// nodes:
//
//   - the kernel's prefix directory (prefixIndex, below) maps each root KV
//     hash (the affinity key) to the replica currently holding the
//     family's prefix pages, updated as files are appended to, forked,
//     truncated, and removed;
//   - every affinity-carrying pred is routed to the directory's current
//     home (sched.Call.Routed), so homes are dynamic rather than
//     hash-static;
//   - when the home is overloaded past the configured imbalance
//     threshold, the engine copies the file's KV pages to the
//     least-loaded replica over the netsim.Interconnect — charging
//     fabric time proportional to pages moved, holding the transient
//     double residency against the KV pool, freeing the source copy, and
//     refreshing the file's recency in the KV daemon. A prefill whose
//     file holds nothing but its own tokens has no pages to copy: the
//     family is re-homed there for free;
//   - files that are advisory-locked or have another pred in flight are
//     never migrated, and migration is refused outright while the KV
//     daemon reports pressure at or above its high-water mark
//     (destination watermarks are respected).
//
// Placement decisions are pure (see decide) so policy is testable apart
// from the machinery.

// DefaultMigrateThreshold is the home-overload factor above which a
// prefix family is moved: the home must carry more than this multiple of
// the mean per-replica pending load.
const DefaultMigrateThreshold = 1.5

// migrateCooldown is the minimum virtual time between two moves of one
// prefix family — hysteresis against a family ping-ponging between
// replicas that are each "overloaded" only by the family itself.
const migrateCooldown = 50 * time.Millisecond

// migrateChoice is the outcome of one placement decision.
type migrateChoice int

const (
	choiceStay migrateChoice = iota
	choiceMigrate
	choiceRehome
)

// migrateDecision is everything the engine knows when an
// affinity-carrying pred reaches routing. Loads are in pending tokens
// (queued + in-flight), the unit the scheduler's ReplicaView exposes.
type migrateDecision struct {
	// HomeLoad / MinLoad / MeanLoad describe the load picture: the
	// family's home replica, the least-loaded replica, and the mean.
	HomeLoad int
	MinLoad  int
	MeanLoad float64
	// RootsAtHome is how many distinct prefix families the directory homes
	// at the home replica.
	RootsAtHome int
	// Threshold is the configured imbalance factor.
	Threshold float64
	// Locked / InFlight mark files migration must never touch: an
	// advisory lock holder may be mutating the file, and another
	// in-flight call holds it pinned right now.
	Locked   bool
	InFlight bool
	// PressureHigh is true while the KV daemon reports GPU usage at or
	// above its high-water mark: a migration's transient double residency
	// would push an already-reclaiming pool further over.
	PressureHigh bool
	// Cooldown is true while the family's last move is younger than
	// migrateCooldown.
	Cooldown bool
	// Fresh marks a prefill whose file holds only this call's tokens:
	// nothing is computed yet, so the family moves without a copy.
	Fresh bool
	// TransferCost is the interconnect time to copy the file's pages.
	TransferCost time.Duration
	// GapBenefit is the queue time the call saves by running at the
	// least-loaded replica instead of home: the pending-token gap priced
	// at the model's per-token compute. A move must buy more than it
	// costs, which is what lets a spread workload settle.
	GapBenefit time.Duration
}

// overloadWantsMove is the load half of the policy: the home replica
// carries multiple families (moving a replica's only family cannot
// relieve it — its calls serialize on whichever replica holds the
// prefix), is strictly above the least-loaded replica, and is past the
// threshold multiple of the mean.
func overloadWantsMove(in migrateDecision) bool {
	if in.RootsAtHome < 2 || in.HomeLoad <= in.MinLoad {
		return false
	}
	return in.MeanLoad > 0 && float64(in.HomeLoad) > in.Threshold*in.MeanLoad
}

// decide is the placement policy: stay home, migrate the prefix's pages
// to the least-loaded replica, or re-home a fresh family there at no
// cost. Pure function of its input, so the policy is table-testable.
func decide(in migrateDecision) migrateChoice {
	if in.Locked || in.InFlight || in.PressureHigh || in.Cooldown {
		return choiceStay
	}
	if !overloadWantsMove(in) {
		return choiceStay
	}
	if in.Fresh {
		if in.GapBenefit <= 0 {
			return choiceStay
		}
		return choiceRehome
	}
	// Cost-benefit: moving must save more queueing than the copy costs.
	if in.GapBenefit <= in.TransferCost {
		return choiceStay
	}
	return choiceMigrate
}

// MigrationStats is a snapshot of the engine's counters; Enabled is
// false (and everything zero) on kernels without the engine.
type MigrationStats struct {
	Enabled          bool    `stats:"enabled"`
	Threshold        float64 `stats:"threshold"`
	InterconnectGbps float64 `stats:"interconnect_gbps"`
	// Roots is the number of live prefix families in the kernel's prefix
	// directory: every family with a request file or a cached radix node.
	Roots int `stats:"prefix_roots"`
	// Migrations / MigratedTokens / MigratedPages / MigrateTime count
	// page-copy moves and the fabric time they charged.
	Migrations     int64         `stats:"migrations"`
	MigratedTokens int64         `stats:"migrated_tokens"`
	MigratedPages  int64         `stats:"migrated_pages"`
	MigrateTime    time.Duration `stats:"migrate_time,str"`
	// ColdStarts counts fresh families re-homed without a copy: their
	// file held only the routed prefill's tokens.
	ColdStarts int64 `stats:"cold_starts"`
	// RefusedLocked / RefusedInFlight / RefusedPressure count moves the
	// safety rules vetoed. Locked and in-flight files are never migrated.
	RefusedLocked   int64 `stats:"refused_locked"`
	RefusedInFlight int64 `stats:"refused_inflight"`
	RefusedPressure int64 `stats:"refused_pressure"`
	// TransferAborts counts migrations rolled back because the
	// interconnect transfer failed: the destination reservation was
	// released, the family stayed home, and the directory was left unchanged.
	TransferAborts int64 `stats:"transfer_aborts"`
	// ReplicaCrashes / InvalidatedRoots count crash-restart notifications
	// from the scheduler and the prefix families they evicted from the
	// directory (their pages died with the replica; the next pred re-seeds
	// them at their hash home).
	ReplicaCrashes   int64 `stats:"replica_crashes"`
	InvalidatedRoots int64 `stats:"invalidated_roots"`
}

// rootInfo is one prefix family's directory entry.
type rootInfo struct {
	home     int
	files    int
	lastMove time.Duration
	moved    bool
}

// fileRec is the directory's per-file record: the family root plus a
// registration seq, so sweeps over the files map can process entries in
// a deterministic order.
type fileRec struct {
	root model.CtxHash
	seq  int64
}

// prefixIndex is the kernel's one prefix→home directory: which replica
// holds each root KV hash's prefix pages. Every kernel has one; the
// migration engine registers request files in it from the pred path
// (append), fork (children share the parent's root), truncate (a root
// change re-registers the file), and remove (swept), and the radix prefix
// cache registers its node files the same way, so a family lives — and a
// migrated home is remembered — until its last request file and its last
// cached node are gone.
type prefixIndex struct {
	// views has one (zero) entry per replica: all hashHome has to show the
	// static dispatcher.
	views []sched.ReplicaView

	mu      sync.Mutex
	roots   map[model.CtxHash]*rootInfo
	files   map[*kvfs.File]fileRec
	fileSeq int64
	// perHome counts live families per home replica, so the hot pred
	// path reads the home's family count in O(1) instead of scanning
	// every root.
	perHome []int
	sinceGC int
}

func newPrefixIndex(replicas int) *prefixIndex {
	return &prefixIndex{
		views:   make([]sched.ReplicaView, replicas),
		roots:   make(map[model.CtxHash]*rootInfo),
		files:   make(map[*kvfs.File]fileRec),
		perHome: make([]int, replicas),
	}
}

// hashHome is where a family lives until the engine moves it — and, under
// dispatchers that ignore affinity, for good: the replica static
// cache-affinity dispatch pins the key to (for a keyed call that Pick
// reads nothing of the views but their number).
func (x *prefixIndex) hashHome(root model.CtxHash) int {
	return (&sched.CacheAffinity{}).Pick(sched.Call{Affinity: uint64(root)}, x.views)
}

// observe registers (or re-registers, after truncate changed the root) f
// under root, homing a new family at its hash home, and reports the
// family's entry plus how many families share its home replica.
func (x *prefixIndex) observe(f *kvfs.File, root model.CtxHash) (fam rootInfo, rootsAtHome int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.sinceGC++; x.sinceGC >= 64 {
		x.sinceGC = 0
		x.gcLocked()
	}
	if prev, ok := x.files[f]; ok && prev.root != root {
		x.dropFileLocked(f)
	}
	if _, ok := x.files[f]; !ok {
		x.fileSeq++
		x.files[f] = fileRec{root: root, seq: x.fileSeq}
		ri, ok := x.roots[root]
		if !ok {
			ri = &rootInfo{home: x.hashHome(root)}
			x.roots[root] = ri
			x.perHome[ri.home]++
		}
		ri.files++
	}
	fam = *x.roots[root]
	return fam, x.perHome[fam.home]
}

// setHome records a completed move of root's family to replica to.
func (x *prefixIndex) setHome(root model.CtxHash, to int, now time.Duration) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if ri, ok := x.roots[root]; ok {
		x.perHome[ri.home]--
		x.perHome[to]++
		ri.home = to
		ri.lastMove = now
		ri.moved = true
	}
}

// home reports the family's current home replica.
func (x *prefixIndex) home(root model.CtxHash) (int, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ri, ok := x.roots[root]
	if !ok {
		return 0, false
	}
	return ri.home, true
}

// size reports the number of live families, sweeping removed files.
func (x *prefixIndex) size() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.gcLocked()
	return len(x.roots)
}

// gcLocked drops entries for removed files; a root with no remaining
// files leaves the directory (its pages are gone, there is nothing to
// home).
func (x *prefixIndex) gcLocked() {
	x.dropFilesLocked(func(f *kvfs.File, _ fileRec) bool { return f.Removed() })
}

// dropFilesLocked drops every file record victim selects, in registration
// order: the per-drop bookkeeping is commutative today, but sweeping a
// sorted snapshot keeps the directory byte-for-byte reproducible even if
// dropFileLocked ever grows order-sensitive side effects (e.g. re-homing
// on the spot).
func (x *prefixIndex) dropFilesLocked(victim func(*kvfs.File, fileRec) bool) {
	var victims []*kvfs.File
	for f, rec := range x.files {
		if victim(f, rec) {
			victims = append(victims, f)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return x.files[victims[i]].seq < x.files[victims[j]].seq })
	for _, f := range victims {
		x.dropFileLocked(f)
	}
}

func (x *prefixIndex) dropFileLocked(f *kvfs.File) {
	root := x.files[f].root
	delete(x.files, f)
	if ri, ok := x.roots[root]; ok {
		if ri.files--; ri.files <= 0 {
			delete(x.roots, root)
			x.perHome[ri.home]--
		}
	}
}

// invalidateHome evicts every family homed at the given replica, dropping
// both the root entries and their file records (a dangling file record
// whose root is gone would wedge observe), and returns the evicted roots.
// Used when a replica crash-restarts: its KV pages are gone, so the
// directory must stop routing affinity there and the prefix cache must
// forget the families' nodes.
func (x *prefixIndex) invalidateHome(home int) map[model.CtxHash]bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	dropped := make(map[model.CtxHash]bool)
	for root, ri := range x.roots {
		if ri.home == home {
			dropped[root] = true
		}
	}
	x.dropFilesLocked(func(_ *kvfs.File, rec fileRec) bool { return dropped[rec.root] })
	return dropped
}

// migrator is the migration engine instance hanging off a kernel.
type migrator struct {
	k  *Kernel
	ic *netsim.Interconnect

	mu sync.Mutex
	// pendingMove[replica] is the KV tokens of migrations currently in
	// flight toward that replica. Concurrent placement decisions add it
	// to the replica's viewed load, so a burst of decisions does not herd
	// every family onto the momentarily-idlest replica.
	pendingMove map[int]int

	// st holds the counters stats reports, bumped in place under mu; the
	// configuration echo and the Roots gauge are filled in at snapshot.
	st MigrationStats
}

func newMigrator(k *Kernel, ic *netsim.Interconnect) *migrator {
	return &migrator{
		k:           k,
		ic:          ic,
		pendingMove: make(map[int]int),
	}
}

// route places one affinity-carrying pred call: it pins the call to the
// family's current home and, when the home is overloaded, moves the
// family first — copying pages over the interconnect (charged to the
// calling actor), or re-homing it for free when the file holds only this
// prefill's tokens. It must run on the calling thread's clock actor.
func (m *migrator) route(c *Ctx, f *kvfs.File, call *sched.Call, cost model.CostModel) {
	root := model.CtxHash(call.Affinity)
	if root == 0 {
		return
	}
	views := m.k.sch.Views()
	n := len(views)
	if n < 2 {
		return
	}
	fam, rootsAtHome := m.k.dir.observe(f, root)
	home := fam.home
	call.Routed, call.Target = true, home

	// Load picture: pending tokens per replica (scheduler view plus KV
	// tokens already migrating toward the replica), min and mean.
	loads := make([]int, n)
	m.mu.Lock()
	for i, v := range views {
		loads[i] = v.PendingTokens() + m.pendingMove[i]
	}
	m.mu.Unlock()
	total, minID := 0, 0
	for i, l := range loads {
		total += l
		if l < loads[minID] {
			minID = i
		}
	}
	if minID == home {
		return
	}
	// The span is the whole file, taken after this call's append.
	span, spanErr := f.ExportPages()
	in := migrateDecision{
		HomeLoad:     loads[home],
		MinLoad:      loads[minID],
		MeanLoad:     float64(total) / float64(n),
		RootsAtHome:  rootsAtHome,
		Threshold:    DefaultMigrateThreshold,
		Locked:       f.LockedBy() != "",
		InFlight:     f.Pins() > 1, // the caller's own pred holds one pin
		PressureHigh: m.pressureHigh(),
		Cooldown:     fam.moved && m.k.clk.Now()-fam.lastMove < migrateCooldown,
		Fresh:        !call.Decode && span.Tokens <= call.Tokens,
		TransferCost: m.ic.PageTransferTime(span.Pages, m.k.fs.PageBytes()),
		GapBenefit:   time.Duration(loads[home]-loads[minID]) * cost.PerToken,
	}
	choice := decide(in)
	if choice != choiceStay && spanErr != nil {
		// ExportPages vetoed what the load picture wanted (lock/residency
		// raced in); the family stays put.
		choice = choiceStay
	}
	switch choice {
	case choiceStay:
		m.noteRefusal(in)
		return
	case choiceMigrate:
		if !m.transfer(c, f, root, span, home, minID) {
			return
		}
	case choiceRehome:
		// Nothing is computed yet: the call prefills on the destination
		// and the family lives there from now on.
		m.k.dir.setHome(root, minID, m.k.clk.Now())
		m.mu.Lock()
		m.st.ColdStarts++
		m.mu.Unlock()
		c.p.publish(ProcEvent{Kind: EventKVMigrate, Phase: "rehome",
			Text: fmt.Sprintf("replica %d -> %d", home, minID)})
	}
	call.Target = minID
}

// transfer copies span over the interconnect: reserve the destination
// copy (double residency), serialize the pages, release the source copy,
// rehome the family, and settle the ledgers. Returns false if the pool
// could not admit the destination copy or the transfer was interrupted.
func (m *migrator) transfer(c *Ctx, f *kvfs.File, root model.CtxHash, span kvfs.PageSpan, from, to int) bool {
	k := m.k
	if err := k.fs.ReserveMigration(span.Pages); err != nil {
		m.mu.Lock()
		m.st.RefusedPressure++
		m.mu.Unlock()
		return false
	}
	// One-shot release guard: between ReserveMigration and here the pool
	// holds a double residency (source copy plus reserved destination
	// pages), and every exit — landed, aborted, or any error return added
	// to this window later — must release exactly once or the pages leak
	// for the kernel's lifetime. The deferred call covers paths that skip
	// the explicit release.
	released := false
	release := func() {
		if !released {
			released = true
			k.fs.ReleaseMigration(span.Pages)
		}
	}
	defer release()
	m.mu.Lock()
	m.pendingMove[to] += span.Tokens
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if m.pendingMove[to] -= span.Tokens; m.pendingMove[to] <= 0 {
			delete(m.pendingMove, to)
		}
		m.mu.Unlock()
	}()
	start := k.clk.Now()
	if err := m.ic.TransferPages(span.Pages, k.fs.PageBytes()); err != nil {
		// Abort: the pages never reached the destination. Drop the
		// reserved destination copy; the source copy and the family's home
		// in the directory are unchanged.
		release()
		m.mu.Lock()
		m.st.TransferAborts++
		m.mu.Unlock()
		c.p.publish(ProcEvent{Kind: EventKVMigrate, Phase: "abort",
			Text: fmt.Sprintf("%d tokens (%d pages), replica %d -> %d: %v",
				span.Tokens, span.Pages, from, to, err)})
		return false
	}
	release() // landed: the source copy is freed
	d := k.clk.Now() - start
	m.k.dir.setHome(root, to, k.clk.Now())
	k.kvd.Touch(f) // a migrated file arrives hot on its new replica
	m.mu.Lock()
	m.st.Migrations++
	m.st.MigratedTokens += int64(span.Tokens)
	m.st.MigratedPages += int64(span.Pages)
	m.st.MigrateTime += d
	m.mu.Unlock()
	k.tracer.Span(trace.Event{
		At: start, Dur: d, PID: c.p.pid, TID: c.tid,
		Kind:   trace.KindMigrate,
		Detail: fmt.Sprintf("migrate %d tokens r%d->r%d", span.Tokens, from, to),
	})
	c.p.publish(ProcEvent{Kind: EventKVMigrate, Phase: "migrate",
		Text: fmt.Sprintf("%d tokens (%d pages), replica %d -> %d, %v",
			span.Tokens, span.Pages, from, to, d.Round(time.Microsecond))})
	return true
}

// noteRefusal attributes a vetoed move to the safety rule that fired.
func (m *migrator) noteRefusal(in migrateDecision) {
	// Only count vetoes of moves the load picture actually wanted.
	if !overloadWantsMove(in) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case in.Locked:
		m.st.RefusedLocked++
	case in.InFlight:
		m.st.RefusedInFlight++
	case in.PressureHigh:
		m.st.RefusedPressure++
	}
}

// replicaCrashed is the scheduler's OnCrash hook: a replica
// crash-restarted, so every prefix family the directory homed there is
// gone from GPU memory. Evicting the entries makes the family's next pred
// re-seed it at its hash home (key % replicas, wherever the engine had
// moved it) instead of routing to pages that no longer exist, and the
// prefix cache forgets the same families' nodes. Runs on the crashing
// replica's actor, after its calls were requeued.
func (k *Kernel) replicaCrashed(id int) {
	dropped := k.dir.invalidateHome(id)
	if m := k.mig; m != nil {
		m.mu.Lock()
		m.st.ReplicaCrashes++
		m.st.InvalidatedRoots += int64(len(dropped))
		m.mu.Unlock()
	}
	k.pcache.dropFamilies(dropped)
}

// pressureHigh reports whether the KV daemon is at or above its
// high-water mark.
func (m *migrator) pressureHigh() bool {
	return m.k.kvd.Pressure() >= kvd.HighWater
}

// stats snapshots the engine counters (nil-safe: the zero value reports
// a disabled engine).
func (m *migrator) stats() MigrationStats {
	if m == nil {
		return MigrationStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	st.Enabled, st.Threshold, st.InterconnectGbps = true, DefaultMigrateThreshold, m.ic.Gbps()
	st.Roots = m.k.dir.size()
	return st
}

// PrefixHome reports which replica the kernel's prefix directory
// currently homes the given root KV hash at; ok is false when the
// directory holds no file of the family — no request file the migration
// engine routed and no cached radix node.
func (k *Kernel) PrefixHome(root model.CtxHash) (replica int, ok bool) {
	return k.dir.home(root)
}
