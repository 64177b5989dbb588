package kvfs

import "fmt"

// This file is the KVFS half of cross-replica KV migration: exporting a
// file's pages as a wire-sized span, and accounting for the transient
// double residency while a copy is in flight. KVFS models one aggregate
// GPU KV pool across replicas (which replica "holds" a prefix is the
// kernel's global prefix index, not a KVFS property), so a completed
// migration is memory-neutral here: the destination copy is reserved
// before the transfer and the source copy released after it, and only
// while the transfer is in flight do both exist.

// PageSpan describes a file's pages exported for migration over the
// replica interconnect: how many fixed-size pages, how many token
// entries they hold, and their wire size.
type PageSpan struct {
	Pages  int
	Tokens int
	Bytes  int64
}

// PageBytes reports the wire size of one KV page.
func (fs *FS) PageBytes() int64 {
	return int64(fs.cfg.PageTokens) * fs.cfg.BytesPerToken
}

// ExportPages snapshots the file's pages as a migratable span. It
// refuses files that are advisory-locked (the holder may be mutating
// them mid-copy) and files with host-resident pages (restore first: only
// GPU pages cross the replica fabric).
func (f *File) ExportPages() (PageSpan, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f.removed {
		return PageSpan{}, ErrRemoved
	}
	if f.lockedBy != "" {
		return PageSpan{}, fmt.Errorf("kvfs: export of locked file: %w", ErrLocked)
	}
	if !f.gpuResidentLocked() {
		return PageSpan{}, ErrOffGPU
	}
	return PageSpan{
		Pages:  len(f.pages),
		Tokens: f.length,
		Bytes:  int64(len(f.pages)) * fs.PageBytes(),
	}, nil
}

// ReserveMigration accounts for the destination copy of a migrating
// span: while the transfer is in flight both the source and destination
// pages exist, so the pool must admit the extra pages or the migration
// is refused (ErrNoSpace) — the destination-side watermark.
func (fs *FS) ReserveMigration(pages int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reserveNLocked(GPU, pages)
}

// ReleaseMigration releases one side of a migration's double residency:
// the source copy once the transfer completes, or the reserved
// destination copy when the transfer aborts.
func (fs *FS) ReleaseMigration(pages int) {
	defer fs.maybeNotify()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.releaseNLocked(GPU, pages)
}
