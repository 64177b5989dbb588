package kvfs

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/kvstore"
)

// DiskTier binds an FS to a kvstore.Store, forming the durable third
// memory level below GPU and host (see Tier). It owns the translation
// between the two accounting worlds:
//
//   - The FS counts disk *pages* against Config.DiskBytes. One disk page
//     is reserved per page of every file written to the store, and the
//     reservation belongs to the file's store record — not to the
//     in-memory page structs. A page demoted to the Disk tier and later
//     promoted back to the GPU keeps its durable copy (and reservation)
//     behind; only dropping the record, which the first Commit after the
//     file's removal does, releases it.
//   - The Store holds token-level snapshot entries and publishes them as
//     FMC1 generations on Commit.
//
// Methods that only mutate metadata (Put, Spill, Import) never
// block on the virtual clock and may be called from any goroutine, e.g.
// under kvd's eviction path. Commit writes a snapshot generation and
// bills the calling actor virtual disk time, so it must run in a
// clock-actor context.
type DiskTier struct {
	fs    *FS
	store *kvstore.Store

	mu   sync.Mutex
	recs map[*File]*diskRec
	// dead lists removed files with a record, in removal order, for the
	// next Commit to drop.
	dead []*File
	// pending tracks tokens demoted host→disk since the last successful
	// Commit: until a snapshot generation lands, those pages have no
	// durable copy, so a failed Commit must move them back to host (see
	// Commit) rather than leave the ledger counting them disk-resident.
	// pendingOrder keeps rollback sweeps deterministic.
	pending      map[*File]int
	pendingOrder []*File
	// rollback, when set, is notified (outside dt.mu) for every file whose
	// spill a failed Commit undid, with the tokens returned to host. The
	// KV daemon uses it to reverse its spill ledger and publish the
	// matching kv_pressure event.
	rollback func(f *File, tokens int)
}

// diskRec tracks one file's footprint in the snapshot store.
type diskRec struct {
	key   string // store key: path for named files, synthetic for anon
	pages int    // disk pages reserved on behalf of this file
}

// NewDiskTier returns a disk tier spilling into store and accounting
// against fs's DiskBytes.
func NewDiskTier(fs *FS, store *kvstore.Store) *DiskTier {
	dt := &DiskTier{
		fs:      fs,
		store:   store,
		recs:    make(map[*File]*diskRec),
		pending: make(map[*File]int),
	}
	fs.OnRemove(dt.noteRemoved)
	return dt
}

// noteRemoved is the tier's removal notice.
func (dt *DiskTier) noteRemoved(f *File) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if dt.recs[f] != nil {
		dt.dead = append(dt.dead, f)
	}
}

// SetSpillRollback installs the commit-failure rollback hook (nil
// clears it). The hook runs outside dt.mu.
func (dt *DiskTier) SetSpillRollback(fn func(f *File, tokens int)) {
	dt.mu.Lock()
	dt.rollback = fn
	dt.mu.Unlock()
}

// Store exposes the underlying snapshot store (for recovery and stats).
func (dt *DiskTier) Store() *kvstore.Store { return dt.store }

// Put writes f's current entries to the snapshot store, replacing any
// previous record for the file and adjusting the disk reservation to the
// file's page count. The file's live pages are not touched — Put alone
// is a checkpoint; Spill also demotes host pages. Durable at the next
// Commit.
func (dt *DiskTier) Put(f *File) error {
	if f.fs != dt.fs {
		return fmt.Errorf("kvfs: disk put across file systems")
	}
	recs := f.Entries()
	p := dt.fs.cfg.PageTokens
	pages := (len(recs) + p - 1) / p
	e := kvstore.SnapshotEntry{
		Root:   f.Root(),
		Path:   f.Path(),
		Owner:  f.Owner(),
		Mode:   uint8(f.Mode()),
		Approx: f.Approx(),
		Recs:   recs,
	}

	dt.mu.Lock()
	defer dt.mu.Unlock()
	// Under dt.mu, so a removal after this check finds the record below.
	if f.Removed() {
		return ErrRemoved
	}
	old := dt.recs[f]
	oldPages := 0
	if old != nil {
		oldPages = old.pages
	}
	if delta := pages - oldPages; delta > 0 {
		if err := dt.fs.reserveDisk(delta); err != nil {
			return err
		}
	} else if oldPages > pages {
		dt.fs.releaseDisk(oldPages - pages)
	}
	k := dt.store.Put(e)
	if old != nil && old.key != k {
		// The file was renamed (Link) or is anonymous: its previous store
		// record sits under a different key and is stale now.
		dt.store.Drop(old.key)
	}
	dt.recs[f] = &diskRec{key: k, pages: pages}
	return nil
}

// Spill checkpoints f to the store and demotes its exclusively owned
// host pages to the disk tier, returning the tokens demoted. This is the
// host→disk leg of the memory daemon's demotion: host space is released
// immediately; durability arrives at the next Commit. A pinned file is
// checkpointed but demotes nothing.
func (dt *DiskTier) Spill(f *File) (tokens int, err error) {
	if err := dt.Put(f); err != nil {
		return 0, err
	}
	tokens, _ = f.movePages(Host, Disk, math.MaxInt) // a removed file demotes nothing
	if tokens > 0 {
		dt.mu.Lock()
		if _, ok := dt.pending[f]; !ok {
			dt.pendingOrder = append(dt.pendingOrder, f)
		}
		dt.pending[f] += tokens
		dt.mu.Unlock()
	}
	return tokens, nil
}

func (dt *DiskTier) forgetLocked(f *File) {
	r := dt.recs[f]
	if r == nil {
		return
	}
	dt.store.Drop(r.key)
	dt.fs.releaseDisk(r.pages)
	delete(dt.recs, f)
	if _, ok := dt.pending[f]; ok {
		// A removed file's pages are gone either way; nothing to roll back.
		delete(dt.pending, f)
		for i, pf := range dt.pendingOrder {
			if pf == f {
				dt.pendingOrder = append(dt.pendingOrder[:i], dt.pendingOrder[i+1:]...)
				break
			}
		}
	}
}

// Commit drops the records of files removed since the last Commit, in
// removal order, and publishes the store's entry set as a new snapshot
// generation. Must run in a clock-actor context: the snapshot write bills
// virtual disk time.
//
// On a failed publish, spills since the last successful Commit are
// rolled back: their pages have no durable copy, so leaving them on the
// Disk tier would let a later PromoteDisk "read" bytes the device never
// acknowledged. Each spilled file's pages move back to host memory (as
// far as host space allows — any remainder stays pending for a retry)
// and the SetSpillRollback hook reverses the spill ledger.
func (dt *DiskTier) Commit() error {
	dt.mu.Lock()
	for _, f := range dt.dead {
		dt.forgetLocked(f)
	}
	dt.dead = nil
	dt.mu.Unlock()
	err := dt.store.Commit()
	dt.mu.Lock()
	if err == nil {
		// Every pending spill is durable now.
		dt.pending = make(map[*File]int)
		dt.pendingOrder = nil
		dt.mu.Unlock()
		return nil
	}
	victims := dt.pendingOrder
	want := make([]int, len(victims))
	for i, f := range victims {
		want[i] = dt.pending[f]
	}
	dt.pending = make(map[*File]int)
	dt.pendingOrder = nil
	hook := dt.rollback
	dt.mu.Unlock()
	// Undemote outside dt.mu: movePages takes the FS lock and the hook
	// takes the daemon's (lock order there is daemon→tier).
	for i, f := range victims {
		// As far as host space allows: a full host pool stops the walk and
		// the remainder stays on the Disk tier, pending a commit retry.
		got, _ := f.movePages(Disk, Host, want[i])
		if got > 0 && hook != nil {
			hook(f, got)
		}
		if rest := want[i] - got; rest > 0 {
			dt.mu.Lock()
			if _, ok := dt.pending[f]; !ok {
				dt.pendingOrder = append(dt.pendingOrder, f)
			}
			dt.pending[f] += rest
			dt.mu.Unlock()
		}
	}
	return err
}

// Import materializes a recovered snapshot entry as a named file whose
// pages all live on the Disk tier, reserving its disk footprint and
// registering the store record with the tier. The returned file is not
// GPU-resident: a program touches it back to life through the usual
// disk-load path. Only named entries are importable —
// anonymous spills belong to processes that did not survive the restart.
func (dt *DiskTier) Import(e kvstore.SnapshotEntry) (*File, error) {
	if e.Path == "" {
		return nil, fmt.Errorf("kvfs: import unnamed snapshot entry: %w", ErrNotExist)
	}
	fs := dt.fs
	p := fs.cfg.PageTokens
	pages := (len(e.Recs) + p - 1) / p

	dt.mu.Lock()
	defer dt.mu.Unlock()
	if err := fs.reserveDisk(pages); err != nil {
		return nil, err
	}

	fs.mu.Lock()
	if _, ok := fs.byPath[e.Path]; ok {
		fs.mu.Unlock()
		fs.releaseDisk(pages)
		return nil, fmt.Errorf("kvfs: import %s: %w", e.Path, ErrExist)
	}
	f := fs.newFileLocked(e.Owner, Mode(e.Mode))
	f.path = e.Path
	fs.byPath[e.Path] = f
	for i := 0; i < len(e.Recs); i += p {
		end := i + p
		if end > len(e.Recs) {
			end = len(e.Recs)
		}
		pg := &page{entries: append(make([]Entry, 0, p), e.Recs[i:end]...), ref: 1, tier: Disk}
		f.pages = append(f.pages, pg)
	}
	f.length = len(e.Recs)
	f.offGPU = len(f.pages)
	f.approx = e.Approx
	switch {
	case f.length == 0:
		f.tail = 0
	case f.approx:
		f.tail = foldTail(f, f.length)
	default:
		f.tail = f.entryAtLocked(f.length - 1).KV
	}
	fs.mu.Unlock()

	dt.recs[f] = &diskRec{key: e.Path, pages: pages}
	return f, nil
}

// reserveDisk accounts n disk pages, all-or-nothing.
func (fs *FS) reserveDisk(n int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reserveNLocked(Disk, n)
}

// releaseDisk returns n disk pages.
func (fs *FS) releaseDisk(n int) {
	defer fs.maybeNotify()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.releaseNLocked(Disk, n)
}
