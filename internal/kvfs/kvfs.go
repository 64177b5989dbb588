// Package kvfs implements KVFS, Symphony's KV-cache file system (paper
// §4.2).
//
// KVFS virtualizes the GPU memory that holds token-level KV tensors in
// fixed-size pages, PagedAttention-style, and exposes the cache to LLM
// inference programs as files: named, persistent beyond a single process,
// access-controlled, shareable, and directly manipulable. Files support
//
//   - Append — performed by the pred system call as it computes new tokens;
//   - Fork — copy-on-write clone sharing pages with the parent, the
//     primitive behind shared-prefix parallel generation (paper Fig. 2);
//   - Truncate — exact rollback to a prefix (live-editor workloads);
//   - Extract/Merge — token-level surgery for context pruning and
//     PromptCache-style composition. These reuse KV tensors under a changed
//     attention context, so like their real counterparts they are
//     *approximations*: the resulting context hash differs from what a full
//     recompute would produce (see Entry.KV);
//   - TryLock/Unlock — advisory exclusive locks;
//   - Pin/Unpin — in-flight use by a call: a pinned file's pages never
//     move down a tier;
//   - Offload/Restore — migration between GPU and host tiers while a
//     program waits on I/O (paper §4.3).
//
// The package provides mechanism only. Eviction and retention are policy
// and live in user programs (that inversion is the paper's core claim) or
// in the baseline servers' built-in caches.
package kvfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/token"
)

// Errors returned by KVFS operations.
var (
	ErrNoSpace  = errors.New("kvfs: out of GPU memory")
	ErrNoHost   = errors.New("kvfs: out of host memory")
	ErrNoDisk   = errors.New("kvfs: out of disk space")
	ErrRemoved  = errors.New("kvfs: file removed")
	ErrPerm     = errors.New("kvfs: permission denied")
	ErrLocked   = errors.New("kvfs: file locked")
	ErrExist    = errors.New("kvfs: file exists")
	ErrNotExist = errors.New("kvfs: file does not exist")
	ErrBadIndex = errors.New("kvfs: index out of range")
	ErrOffGPU   = errors.New("kvfs: file not GPU-resident")
)

// Mode is a file permission bitmask. The owner and the admin user always
// pass permission checks.
type Mode uint8

// Permission bits.
const (
	WorldRead Mode = 1 << iota
	WorldWrite

	// ModePrivate is readable and writable only by the owner.
	ModePrivate Mode = 0
	// ModeShared is world-readable, owner-writable — the paper's "system
	// prompt readable by all LIPs, writable only by the admin".
	ModeShared Mode = WorldRead
)

// Admin is the user that bypasses all permission checks.
const Admin = "admin"

// Tier identifies where a page's tensors live.
type Tier uint8

// Memory tiers. GPU and Host are the paper's two levels (§4.3); Disk is
// the durable third level backed by the internal/kvstore snapshot store,
// which warm restarts re-prefill from (see DiskTier).
const (
	GPU Tier = iota
	Host
	Disk
)

func (t Tier) String() string {
	switch t {
	case GPU:
		return "gpu"
	case Host:
		return "host"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Entry is one token's KV-cache record. KV identifies the tensor contents:
// for entries produced by pred it equals the rolling context hash after
// this token, so a file built by appending tokens t0..tn has
// Tail() == model.HashContext(0, [t0..tn], pos0). Entries that survive
// Extract or Merge keep their original KV — the tensors are reused, not
// recomputed — and the file's tail becomes a fold over the surviving KVs,
// deterministically modelling approximate attention reuse.
type Entry struct {
	Tok token.ID
	Pos int
	KV  model.CtxHash
}

// Config sizes a file system.
type Config struct {
	// PageTokens is the page size in tokens (vLLM uses 16).
	PageTokens int
	// GPUBytes, HostBytes, and DiskBytes bound the three tiers. A zero
	// DiskBytes disables the disk tier.
	GPUBytes  int64
	HostBytes int64
	DiskBytes int64
	// BytesPerToken is the KV footprint per token (model dependent).
	BytesPerToken int64
}

// DefaultConfig returns the A100-80GB / Llama-13B configuration used by
// the paper's evaluation: ~50 GB of HBM left for KV after weights.
func DefaultConfig() Config {
	return Config{
		PageTokens:    16,
		GPUBytes:      50 << 30,
		HostBytes:     200 << 30,
		BytesPerToken: 800 << 10,
	}
}

// Stats is a snapshot of file-system counters.
type Stats struct {
	GPUPages     int `stats:"gpu_pages"`
	HostPages    int `stats:"-"`
	GPUPageCap   int `stats:"gpu_page_cap"`
	HostPageCap  int `stats:"-"`
	GPUPeakPages int `stats:"-"`
	// DiskPages is the snapshot-store footprint in pages: every page
	// with a durable copy on the disk tier, whether or not it also has a
	// live GPU or host copy (see DiskTier). DiskPeakPages is its
	// high-water mark.
	DiskPages     int   `stats:"/disk.disk_pages"`
	DiskPageCap   int   `stats:"/disk.disk_page_cap"`
	DiskPeakPages int   `stats:"/disk.disk_peak_pages"`
	Files         int   `stats:"-"`
	Forks         int64 `stats:"-"`
	COWCopies     int64 `stats:"-"`
	// Shares counts cross-tree prefix adoptions (AdoptPrefix): page-aligned
	// prefixes attached to an unrelated empty file by bumping refcounts,
	// the mechanism behind the kernel's radix prefix cache.
	Shares     int64 `stats:"-"`
	OOMErrors  int64 `stats:"-"`
	PageTokens int   `stats:"-"`
}

// tierUse is one tier's page accounting: pages in use, capacity, and the
// high-water mark of pages.
type tierUse struct{ pages, cap, peak int }

// errFull is the error a full tier refuses a reservation with.
var errFull = [...]error{GPU: ErrNoSpace, Host: ErrNoHost, Disk: ErrNoDisk}

type page struct {
	entries []Entry
	ref     int
	tier    Tier
}

// FS is a KV-cache file system instance. All methods are safe for
// concurrent use.
type FS struct {
	mu  sync.Mutex
	cfg Config

	// use is the page accounting of each tier, indexed by Tier.
	use [3]tierUse

	byPath map[string]*File
	// st holds the counters Stats reports; the page size and the per-tier
	// page fields are filled in at snapshot.
	st Stats

	// onRelease is invoked (outside fs.mu, debounced per operation) after
	// an operation frees GPU pages. The Symphony kernel uses it to wake
	// the call waiting for space at its space gate.
	onRelease    func()
	releaseDirty bool
}

// SetReleaseHook registers fn to run after operations that free GPU
// pages. Mechanism only: what a waiter does with the notification is the
// kernel's policy.
func (fs *FS) SetReleaseHook(fn func()) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.onRelease = fn
}

// maybeNotify fires the release hook if the preceding operation freed GPU
// pages. It must be called without fs.mu held (deferred before the lock).
func (fs *FS) maybeNotify() {
	fs.mu.Lock()
	dirty, hook := fs.releaseDirty, fs.onRelease
	fs.releaseDirty = false
	fs.mu.Unlock()
	if dirty && hook != nil {
		hook()
	}
}

// NewFS returns an empty file system.
func NewFS(cfg Config) *FS {
	if cfg.PageTokens <= 0 {
		cfg.PageTokens = 16
	}
	if cfg.BytesPerToken <= 0 {
		cfg.BytesPerToken = 1
	}
	pageBytes := int64(cfg.PageTokens) * cfg.BytesPerToken
	fs := &FS{
		cfg:    cfg,
		byPath: make(map[string]*File),
	}
	fs.use[GPU].cap = int(cfg.GPUBytes / pageBytes)
	fs.use[Host].cap = int(cfg.HostBytes / pageBytes)
	fs.use[Disk].cap = int(cfg.DiskBytes / pageBytes)
	return fs
}

// Config returns the file system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// Stats returns a snapshot of counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := fs.st
	st.PageTokens = fs.cfg.PageTokens
	gpu, host, disk := fs.use[GPU], fs.use[Host], fs.use[Disk]
	st.GPUPages, st.GPUPageCap, st.GPUPeakPages = gpu.pages, gpu.cap, gpu.peak
	st.HostPages, st.HostPageCap = host.pages, host.cap
	st.DiskPages, st.DiskPageCap, st.DiskPeakPages = disk.pages, disk.cap, disk.peak
	return st
}

// GPUFreeTokens reports how many more tokens fit on the GPU tier.
func (fs *FS) GPUFreeTokens() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return (fs.use[GPU].cap - fs.use[GPU].pages) * fs.cfg.PageTokens
}

// reserveLocked accounts for one new page in tier.
func (fs *FS) reserveLocked(t Tier) error {
	u := &fs.use[t]
	if u.pages >= u.cap {
		fs.st.OOMErrors++
		return errFull[t]
	}
	u.pages++
	if u.pages > u.peak {
		u.peak = u.pages
	}
	return nil
}

func (fs *FS) releaseLocked(t Tier) {
	fs.use[t].pages--
	if t == GPU {
		fs.releaseDirty = true
	}
}

// reserveNLocked accounts for n new pages in tier, all or nothing.
func (fs *FS) reserveNLocked(t Tier, n int) error {
	for i := 0; i < n; i++ {
		if err := fs.reserveLocked(t); err != nil {
			fs.releaseNLocked(t, i)
			return err
		}
	}
	return nil
}

func (fs *FS) releaseNLocked(t Tier, n int) {
	for i := 0; i < n; i++ {
		fs.releaseLocked(t)
	}
}

// Create makes a new empty named file owned by owner.
func (fs *FS) Create(path, owner string, mode Mode) (*File, error) {
	if path == "" {
		return nil, fmt.Errorf("kvfs: empty path: %w", ErrNotExist)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.byPath[path]; ok {
		return nil, fmt.Errorf("kvfs: create %s: %w", path, ErrExist)
	}
	f := fs.newFileLocked(owner, mode)
	f.path = path
	fs.byPath[path] = f
	return f, nil
}

// CreateAnon makes a new empty anonymous file (e.g. a fork target or a
// scratch generation context).
func (fs *FS) CreateAnon(owner string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.newFileLocked(owner, ModePrivate)
}

func (fs *FS) newFileLocked(owner string, mode Mode) *File {
	fs.st.Files++
	return &File{fs: fs, owner: owner, mode: mode}
}

// Open looks up a named file, checking that requester may access it with
// the given intent.
func (fs *FS) Open(path, requester string, write bool) (*File, error) {
	fs.mu.Lock()
	f, ok := fs.byPath[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("kvfs: open %s: %w", path, ErrNotExist)
	}
	if err := f.checkAccess(requester, write); err != nil {
		return nil, fmt.Errorf("kvfs: open %s: %w", path, err)
	}
	return f, nil
}

// Remove unlinks and frees a named file. Only the owner or admin may
// remove a file.
func (fs *FS) Remove(path, requester string) error {
	fs.mu.Lock()
	f, ok := fs.byPath[path]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("kvfs: remove %s: %w", path, ErrNotExist)
	}
	if requester != f.owner && requester != Admin {
		return fmt.Errorf("kvfs: remove %s: %w", path, ErrPerm)
	}
	return f.Remove()
}

// Link gives an anonymous file a name, making it durable and openable by
// other programs. The requester must be the file's owner or admin.
func (fs *FS) Link(f *File, path, requester string) error {
	if requester != f.owner && requester != Admin {
		return fmt.Errorf("kvfs: link %s: %w", path, ErrPerm)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.byPath[path]; ok {
		return fmt.Errorf("kvfs: link %s: %w", path, ErrExist)
	}
	if f.removed {
		return ErrRemoved
	}
	if f.path != "" {
		delete(fs.byPath, f.path)
	}
	f.path = path
	fs.byPath[path] = f
	return nil
}

// List returns the sorted paths of named files with the given prefix.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.byPath {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
