package kvfs

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/token"
)

// File is a KV-cache file: an ordered sequence of token KV entries stored
// in ref-counted pages. Files are either named (created with Create or
// Link) or anonymous (CreateAnon, Fork, Extract, Merge).
//
// Concurrency: all state is guarded by the owning FS's single mutex. File
// operations are metadata-only and short; the expensive part of KV work
// (GPU time, PCIe transfers) is charged by callers through the scheduler
// and cost model.
type File struct {
	fs    *FS
	owner string
	mode  Mode
	path  string

	pages  []*page
	length int
	// offGPU counts pages of this file not resident on the GPU tier.
	// Exact because tier changes are restricted to exclusively-owned
	// pages (see Offload/Restore) and forks of non-resident files are
	// refused, so a shared page is always GPU-resident.
	offGPU int
	tail   model.CtxHash
	// approx marks files assembled by Extract/Merge, whose tail is a fold
	// over reused KV entries rather than an exact context hash.
	approx  bool
	removed bool

	lockedBy string
	// pins counts in-flight calls using the file (see Pin).
	pins int
}

// Owner returns the file's owning user.
func (f *File) Owner() string { return f.owner }

// Path returns the file's name, or "" for anonymous files.
func (f *File) Path() string {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.path
}

// Mode returns the permission bits.
func (f *File) Mode() Mode { return f.mode }

// Len reports the number of token entries.
func (f *File) Len() int {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.length
}

// Root returns the context hash of the file's first KV entry, or zero for
// an empty file. Forks and prefix extracts of a file share its root, so
// the hash identifies a conversation's prefix lineage — the affinity key
// cache-aware replica dispatch routes on.
func (f *File) Root() model.CtxHash {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.length == 0 {
		return 0
	}
	return f.entryAtLocked(0).KV
}

// Tail returns the context hash identifying the file's full visible
// context — the input to the model for the next pred call.
func (f *File) Tail() model.CtxHash {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.tail
}

// Approx reports whether the file's context is an approximate (reused
// rather than recomputed) attention context.
func (f *File) Approx() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.approx
}

// Removed reports whether the file has been removed.
func (f *File) Removed() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.removed
}

// CheckAccess reports whether requester may use the file with the given
// intent. The Symphony syscall layer calls it on every mutating operation;
// KVFS itself checks it on Open.
func (f *File) CheckAccess(requester string, write bool) error {
	return f.checkAccess(requester, write)
}

func (f *File) checkAccess(requester string, write bool) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.removed {
		return ErrRemoved
	}
	if requester == f.owner || requester == Admin {
		return nil
	}
	if write {
		if f.mode&WorldWrite == 0 {
			return ErrPerm
		}
		return nil
	}
	if f.mode&(WorldRead|WorldWrite) == 0 {
		return ErrPerm
	}
	return nil
}

// entryAtLocked returns entry i. Caller must hold fs.mu and ensure i is in
// range.
func (f *File) entryAtLocked(i int) Entry {
	p := f.fs.cfg.PageTokens
	return f.pages[i/p].entries[i%p]
}

// Entries returns a copy of all token entries.
func (f *File) Entries() []Entry {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	out := make([]Entry, 0, f.length)
	for i := 0; i < f.length; i++ {
		out = append(out, f.entryAtLocked(i))
	}
	return out
}

// Append extends the file with tokens at the given absolute positions,
// computing each token's KV identity from the rolling context. It returns
// the context hash *after* each appended token — the hashes pred feeds to
// the model to produce each token's next-token distribution.
//
// Append reserves all needed pages up front, so on error (ErrNoSpace, or
// ErrOffGPU if the file has offloaded pages) the file is unchanged.
func (f *File) Append(toks []token.ID, positions []int) ([]model.CtxHash, error) {
	if len(toks) != len(positions) {
		return nil, fmt.Errorf("kvfs: append: %d tokens, %d positions", len(toks), len(positions))
	}
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return nil, ErrRemoved
	}
	if !f.gpuResidentLocked() {
		return nil, ErrOffGPU
	}
	p := fs.cfg.PageTokens

	// Pre-reserve every page this append needs, including a possible COW
	// copy of a shared last page.
	pagesAfter := (f.length + len(toks) + p - 1) / p
	need := pagesAfter - len(f.pages)
	idx := f.length % p
	cow := idx != 0 && f.pages[len(f.pages)-1].ref > 1
	if cow {
		need++
	}
	if err := fs.reserveNLocked(GPU, need); err != nil {
		return nil, err
	}

	if cow {
		old := f.pages[len(f.pages)-1]
		cp := &page{entries: append([]Entry(nil), old.entries[:idx]...), ref: 1, tier: GPU}
		old.ref--
		f.pages[len(f.pages)-1] = cp
		fs.st.COWCopies++
	}

	tails := make([]model.CtxHash, len(toks))
	for i, tok := range toks {
		off := f.length % p
		if off == 0 {
			f.pages = append(f.pages, &page{entries: make([]Entry, 0, p), ref: 1, tier: GPU})
		}
		pg := f.pages[len(f.pages)-1]
		// Drop stale entries left behind by Truncate before writing.
		pg.entries = pg.entries[:off]
		f.tail = f.tail.Extend(tok, positions[i])
		pg.entries = append(pg.entries, Entry{Tok: tok, Pos: positions[i], KV: f.tail})
		f.length++
		tails[i] = f.tail
	}
	return tails, nil
}

// Fork returns a copy-on-write clone owned by owner. The clone shares all
// pages with the parent; neither side pays memory until one of them
// appends into a shared partial page. This is the kv_fork of the paper's
// Figure 2. The file must be GPU-resident: sharing pages across files
// pins them to the GPU tier (restore it first).
func (f *File) Fork(owner string) (*File, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return nil, ErrRemoved
	}
	if !f.gpuResidentLocked() {
		return nil, ErrOffGPU
	}
	child := fs.newFileLocked(owner, ModePrivate)
	child.pages = append([]*page(nil), f.pages...)
	for _, pg := range child.pages {
		pg.ref++
	}
	child.length = f.length
	child.tail = f.tail
	child.approx = f.approx
	fs.st.Forks++
	return child, nil
}

// AdoptPrefix attaches the first tokens entries of src to f — an empty,
// unrelated file — by sharing src's pages, the cross-tree analogue of
// Fork used by the kernel's radix prefix cache: two programs that submit
// the same preamble pay its KV memory once. tokens must be a positive
// multiple of the page size so only full pages are shared (a later
// Append into f then always opens a fresh page and never COWs). Both
// files keep an exact per-file logical view; the shared pages are
// counted once and, like Fork, pinned to the GPU tier by the shared-page
// residency invariant, so src must be GPU-resident (restore it first).
func (f *File) AdoptPrefix(src *File, tokens int) error {
	fs := f.fs
	if src.fs != fs {
		return fmt.Errorf("kvfs: adopt across file systems")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed || src.removed {
		return ErrRemoved
	}
	if f.length != 0 || len(f.pages) != 0 {
		return fmt.Errorf("kvfs: adopt into non-empty file: %w", ErrBadIndex)
	}
	p := fs.cfg.PageTokens
	if tokens <= 0 || tokens%p != 0 || tokens > src.length {
		return fmt.Errorf("kvfs: adopt %d of %d tokens (page size %d): %w",
			tokens, src.length, p, ErrBadIndex)
	}
	if src.approx {
		return fmt.Errorf("kvfs: adopt from approximate context: %w", ErrBadIndex)
	}
	if !src.gpuResidentLocked() {
		return ErrOffGPU
	}
	f.pages = append([]*page(nil), src.pages[:tokens/p]...)
	for _, pg := range f.pages {
		pg.ref++
	}
	f.length = tokens
	f.tail = src.entryAtLocked(tokens - 1).KV
	f.approx = false
	fs.st.Shares++
	return nil
}

// Truncate shortens the file to its first n entries, releasing pages that
// fall off the end. Truncation to a prefix is exact: the resulting context
// hash equals what building the prefix directly would produce.
func (f *File) Truncate(n int) error {
	fs := f.fs
	defer fs.maybeNotify()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return ErrRemoved
	}
	if n < 0 || n > f.length {
		return fmt.Errorf("kvfs: truncate to %d of %d: %w", n, f.length, ErrBadIndex)
	}
	if n == f.length {
		return nil
	}
	p := fs.cfg.PageTokens
	keep := (n + p - 1) / p
	for _, pg := range f.pages[keep:] {
		if pg.tier != GPU {
			f.offGPU--
		}
		fs.derefLocked(pg)
	}
	f.pages = f.pages[:keep]
	f.length = n
	switch {
	case n == 0:
		f.tail = 0
		f.approx = false
	case f.approx:
		f.tail = foldTail(f, n)
	default:
		f.tail = f.entryAtLocked(n - 1).KV
	}
	return nil
}

// foldTail recomputes an approximate file's tail over its first n entries.
// Caller must hold fs.mu.
func foldTail(f *File, n int) model.CtxHash {
	var h model.CtxHash
	for i := 0; i < n; i++ {
		h = h.Mix(f.entryAtLocked(i).KV)
	}
	return h
}

// Extract builds a new file from the entries at the given strictly
// increasing indices, reusing their KV tensors (paper §4.2: context
// pruning). Extracting a pure prefix is exact; any other selection yields
// an approximate context (see Entry.KV).
func (f *File) Extract(owner string, indices []int) (*File, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return nil, ErrRemoved
	}
	prefix := true
	for i, idx := range indices {
		if idx < 0 || idx >= f.length {
			return nil, fmt.Errorf("kvfs: extract index %d of %d: %w", idx, f.length, ErrBadIndex)
		}
		if i > 0 && idx <= indices[i-1] {
			return nil, fmt.Errorf("kvfs: extract indices not increasing: %w", ErrBadIndex)
		}
		if idx != i {
			prefix = false
		}
	}
	entries := make([]Entry, len(indices))
	for i, idx := range indices {
		entries[i] = f.entryAtLocked(idx)
	}
	child, err := fs.buildFileLocked(owner, entries)
	if err != nil {
		return nil, err
	}
	if prefix && len(indices) > 0 && !f.approx {
		child.approx = false
		child.tail = entries[len(entries)-1].KV
	}
	return child, nil
}

// Merge concatenates the given files into a new file owned by owner,
// reusing every entry's KV tensors. The result is an approximate context
// (PromptCache-style modular reuse).
func (fs *FS) Merge(owner string, files ...*File) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var entries []Entry
	for _, f := range files {
		if f.fs != fs {
			return nil, fmt.Errorf("kvfs: merge across file systems")
		}
		if f.removed {
			return nil, ErrRemoved
		}
		for i := 0; i < f.length; i++ {
			entries = append(entries, f.entryAtLocked(i))
		}
	}
	return fs.buildFileLocked(owner, entries)
}

// buildFileLocked materializes a new approximate file holding entries,
// reserving fresh GPU pages. Caller must hold fs.mu.
func (fs *FS) buildFileLocked(owner string, entries []Entry) (*File, error) {
	p := fs.cfg.PageTokens
	need := (len(entries) + p - 1) / p
	if err := fs.reserveNLocked(GPU, need); err != nil {
		return nil, err
	}
	child := fs.newFileLocked(owner, ModePrivate)
	var tail model.CtxHash
	for i := 0; i < len(entries); i += p {
		end := i + p
		if end > len(entries) {
			end = len(entries)
		}
		pg := &page{entries: append([]Entry(nil), entries[i:end]...), ref: 1, tier: GPU}
		child.pages = append(child.pages, pg)
	}
	for _, e := range entries {
		tail = tail.Mix(e.KV)
	}
	child.length = len(entries)
	child.tail = tail
	child.approx = true
	return child, nil
}

// Remove frees the file's pages and unlinks it. Further operations on the
// file fail with ErrRemoved. Pages shared with forks survive until every
// referencing file is removed.
func (f *File) Remove() error {
	fs := f.fs
	defer fs.maybeNotify()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return ErrRemoved
	}
	for _, pg := range f.pages {
		fs.derefLocked(pg)
	}
	f.pages = nil
	f.length = 0
	f.offGPU = 0
	f.removed = true
	if f.path != "" {
		delete(fs.byPath, f.path)
		f.path = ""
	}
	fs.st.Files--
	return nil
}

func (fs *FS) derefLocked(pg *page) {
	pg.ref--
	if pg.ref == 0 && pg.tier != Disk {
		// Disk-tier footprint is owned by the file's snapshot-store
		// record (see DiskTier), not by the in-memory page: dropping the
		// page leaves the durable copy and its reservation behind until
		// DiskTier.Commit drops the removed file's record.
		fs.releaseLocked(pg.tier)
	}
}

// TryLock acquires the file's advisory exclusive lock for who, failing
// with ErrLocked if another holder exists. Locks are not recursive.
func (f *File) TryLock(who string) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.removed {
		return ErrRemoved
	}
	if f.lockedBy != "" && f.lockedBy != who {
		return ErrLocked
	}
	if f.lockedBy == who {
		return fmt.Errorf("kvfs: lock already held by %s: %w", who, ErrLocked)
	}
	f.lockedBy = who
	return nil
}

// Unlock releases the advisory lock held by who.
func (f *File) Unlock(who string) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.lockedBy != who {
		return fmt.Errorf("kvfs: unlock by non-holder %s: %w", who, ErrPerm)
	}
	f.lockedBy = ""
	return nil
}

// LockedBy reports the current advisory lock holder, or "".
func (f *File) LockedBy() string {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.lockedBy
}

// Pin marks the file in use by an in-flight call. A pinned file's pages
// never move down a tier (see movePages): offload and spill skip it, while
// restore, append, fork and removal work as usual. Pins nest, and they
// count whether or not a memory daemon runs.
func (f *File) Pin() {
	f.fs.mu.Lock()
	f.pins++
	f.fs.mu.Unlock()
}

// Unpin releases one Pin.
func (f *File) Unpin() {
	f.fs.mu.Lock()
	if f.pins > 0 {
		f.pins--
	}
	f.fs.mu.Unlock()
}

// Pins reports how many in-flight calls hold the file pinned.
func (f *File) Pins() int {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.pins
}

func (f *File) gpuResidentLocked() bool { return f.offGPU == 0 }

// GPUResident reports whether every page lives on the GPU tier, the
// precondition for pred.
func (f *File) GPUResident() bool {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.gpuResidentLocked()
}

// ResidentTokens reports how many of the file's tokens live in each tier.
func (f *File) ResidentTokens() (gpu, host, disk int) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	for _, pg := range f.pages {
		switch pg.tier {
		case GPU:
			gpu += len(pg.entries)
		case Host:
			host += len(pg.entries)
		case Disk:
			disk += len(pg.entries)
		}
	}
	return gpu, host, disk
}

// movePages is the one walker behind every tier transition: it moves up
// to maxTokens of the file's pages on tier from to tier to, in file order,
// and returns the tokens moved. The rules follow from the tier pair. Only
// exclusively owned pages leave the GPU or change tier below it (a shared
// page may be in use by another program, and shared pages are always
// GPU-resident). The destination is reserved and the source released,
// except on the Disk side: the file's snapshot-store record owns the disk
// reservation for every page of the file (see DiskTier), so a page moving
// to Disk reserves nothing and a page leaving Disk keeps its durable copy
// behind. A pinned file moves nothing down a tier (0 tokens, nil error):
// an in-flight call is using it. A full destination stops the walk with
// its error and leaves the file partially moved; the caller may retry
// after freeing memory.
func (f *File) movePages(from, to Tier, maxTokens int) (tokens int, err error) {
	fs := f.fs
	if from == GPU {
		defer fs.maybeNotify()
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return 0, ErrRemoved
	}
	if to > from && f.pins > 0 {
		return 0, nil
	}
	offGPU := 0 // what one moved page adds to f.offGPU
	switch GPU {
	case from:
		offGPU = 1
	case to:
		offGPU = -1
	}
	for _, pg := range f.pages {
		if tokens >= maxTokens {
			break
		}
		if pg.tier != from || (to != GPU && pg.ref > 1) {
			continue
		}
		if to != Disk {
			if err := fs.reserveLocked(to); err != nil {
				return tokens, err
			}
		}
		if from != Disk {
			fs.releaseLocked(from)
		}
		pg.tier = to
		f.offGPU += offGPU
		tokens += len(pg.entries)
	}
	return tokens, nil
}

// Offload migrates the file's exclusively owned GPU pages to host memory,
// returning the number of tokens moved (the caller charges PCIe transfer
// time for them). Pages shared with other files stay put: another program
// may be using them. A pinned file moves nothing.
func (f *File) Offload() (tokens int, err error) {
	return f.movePages(GPU, Host, math.MaxInt)
}

// Restore migrates the file's host pages back to the GPU, returning the
// number of tokens moved. On ErrNoSpace the file is left partially
// restored; the caller may retry after freeing memory. Disk-tier pages
// are not touched: they come back through PromoteDisk, whose cost (NVMe
// read plus PCIe) is billed separately.
func (f *File) Restore() (tokens int, err error) {
	return f.movePages(Host, GPU, math.MaxInt)
}

// PromoteDisk moves the file's disk-tier pages to the GPU, returning the
// tokens moved. The durable copy (and its disk reservation) stays behind
// in the snapshot store. On ErrNoSpace the file is left partially
// promoted; the caller may retry after freeing memory. The caller bills
// the move as a data load: NVMe read plus PCIe (see core's Kernel.promote).
func (f *File) PromoteDisk() (tokens int, err error) {
	return f.movePages(Disk, GPU, math.MaxInt)
}
