// Kernel-wide radix prefix cache: automatic cross-job KV deduplication
// (SGLang/RadixAttention-style), built on KVFS's cross-tree page sharing.
//
// KvFork reuses a prefix only inside one process tree, and the migration
// engine only moves already-materialized roots between replicas; two
// independent jobs submitting the same system prompt + few-shot preamble
// each paid full prefill. The prefix cache closes that gap in the kernel:
// every committed prefill leaves its chunk-aligned prefixes in a radix
// tree keyed by rolling context hashes, and every later prefill whose
// prompt extends a cached prefix attaches it by refcounted COW share
// (kvfs.File.AdoptPrefix) and submits only the uncached tail to the GPU.
//
// Tree layout. Nodes sit at fixed chunk boundaries (ChunkTokens, rounded
// up to a KVFS page multiple so shares stay page-aligned); the key of the
// node at depth d is model.HashContext over the first d prompt tokens, so
// the radix structure is implicit — a lookup walks boundary by boundary
// and stops at the first missing hash. Each node owns an anonymous
// admin KV file holding the full prefix by page sharing: interior pages
// are referenced by every descendant (and any live user files), so KVFS's
// shared-page rules pin them to the GPU, while a leaf's exclusive tail
// pages are ordinary kvd eviction candidates (the node files are tracked
// with the daemon) and may be offloaded or spilled to disk; a later match
// then pays the existing promote-vs-recompute decision in ensureResident.
//
// Eviction and invalidation. A MaxNodes cap evicts idle leaves in
// least-recent-use order (shared interior pages survive removal via
// refcounts); a node is never evicted while a pred holds its file pinned
// mid-attach.
// The tree holds content only. Where a prefix lives is the kernel's prefix
// directory's business (migrate.go): each node file is registered there
// under its prompt family's root, like the family's request files, and
// when a GPU replica crash-restarts the directory names the families it
// dropped and the tree forgets their nodes.
package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/token"
)

// Defaults for PrefixConfig.
const (
	DefaultPrefixChunk    = 64
	DefaultPrefixMaxNodes = 4096
)

// PrefixConfig configures the kernel's radix prefix cache. The zero value
// disables it.
type PrefixConfig struct {
	// Enabled turns the cache on.
	Enabled bool
	// ChunkTokens is the radix chunk size: prefixes are cached and matched
	// at multiples of it. It is rounded up to a multiple of the KVFS page
	// size so shares stay page-aligned. Default DefaultPrefixChunk.
	ChunkTokens int
	// MaxNodes caps the tree; idle leaves are evicted in LRU order above
	// it. Default DefaultPrefixMaxNodes.
	MaxNodes int
	// CacheAwareOrder is ignored — New does not read it: in-lane order is
	// FIFO (see sched.replica.iterate). The field stays because the frozen
	// benchmark/kernel.go sets it; the next benchmark PR drops those two
	// reads, then this field goes.
	CacheAwareOrder bool
}

// PrefixCacheStats is a snapshot of the radix prefix cache, surfaced
// through Kernel.Stats and the server's /v1/stats prefix_cache block.
type PrefixCacheStats struct {
	Enabled     bool `stats:"enabled"`
	ChunkTokens int  `stats:"chunk_tokens"`
	// Nodes is the current tree size; ResidentTokens / SpilledTokens
	// attribute each node's own chunk to the GPU+host tiers vs the disk
	// tier (shared interior pages are pinned to the GPU by KVFS, so only
	// leaf-exclusive chunks ever spill).
	Nodes          int `stats:"nodes"`
	ResidentTokens int `stats:"resident_tokens"`
	SpilledTokens  int `stats:"spilled_tokens"`
	// Lookups counts match walks; Hits those that attached a prefix;
	// HitTokens the tokens attached instead of prefilled; SavedPrefill
	// the prefill GPU time those tokens would have cost.
	Lookups      int64         `stats:"lookups"`
	Hits         int64         `stats:"hits"`
	HitTokens    int64         `stats:"hit_tokens"`
	SavedPrefill time.Duration `stats:"saved_prefill_ms,ms"`
	// Insertions counts nodes created, Evictions nodes dropped by the
	// MaxNodes cap, Invalidations nodes dropped by replica crashes.
	Insertions    int64 `stats:"insertions"`
	Evictions     int64 `stats:"evictions"`
	Invalidations int64 `stats:"invalidations"`
}

// prefixNode is one radix-tree node: the cached prefix of depth tokens
// whose rolling context hash is tail. Its file shares all pages with its
// ancestors (and with the user files it was adopted from/into); the last
// chunk is the node's own.
type prefixNode struct {
	tail   model.CtxHash
	depth  int
	parent model.CtxHash // zero at depth == chunk
	file   *kvfs.File
	// root is the node's prompt family: the root KV hash of every file
	// holding this prefix, the affinity key of every pred on them, and the
	// key the node file is registered under in the prefix directory.
	root model.CtxHash
	// seq orders nodes by insertion for deterministic sweeps; lastUse is
	// a logical-use counter for LRU eviction.
	seq     int64
	lastUse int64
	// children counts direct extensions; only childless nodes (leaves)
	// are cap-evictable.
	children int
}

// prefixCache is the kernel-owned radix tree. All methods are safe for
// concurrent use and, except where noted, nil-safe, so a kernel without
// the cache pays only nil checks.
type prefixCache struct {
	k        *Kernel
	chunk    int
	maxNodes int

	mu     sync.Mutex
	nodes  map[model.CtxHash]*prefixNode
	seq    int64
	useSeq int64

	// st holds the counters stats reports, bumped in place under mu; the
	// configuration echo, Nodes and the token attribution are filled in
	// at snapshot.
	st PrefixCacheStats
}

// newPrefixCache assembles a cache for k, normalizing the chunk size to a
// page multiple. Returns nil when cfg is disabled.
func newPrefixCache(k *Kernel, cfg PrefixConfig) *prefixCache {
	if !cfg.Enabled {
		return nil
	}
	chunk := cfg.ChunkTokens
	if chunk <= 0 {
		chunk = DefaultPrefixChunk
	}
	if pt := k.fs.Config().PageTokens; chunk%pt != 0 {
		chunk += pt - chunk%pt
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultPrefixMaxNodes
	}
	return &prefixCache{
		k:        k,
		chunk:    chunk,
		maxNodes: maxNodes,
		nodes:    make(map[model.CtxHash]*prefixNode),
	}
}

// match walks the prompt's chunk boundaries and returns the deepest
// cached node with its file pinned, a hold the caller must release. A
// node whose file is pinned is never evicted, and one a crash dropped
// from the tree meanwhile keeps its file until the last pin is released.
// The walk caps at len(toks)-1: a pred must always prefill at least one
// token. Returns (nil, 0) on a miss.
func (pc *prefixCache) match(toks []token.ID) (*prefixNode, int) {
	if pc == nil {
		return nil, 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.st.Lookups++
	var best *prefixNode
	h := model.CtxHash(0)
	prev := 0
	for b := pc.chunk; b <= len(toks)-1; b += pc.chunk {
		h = model.HashContext(h, toks[prev:b], prev)
		prev = b
		n, ok := pc.nodes[h]
		if !ok {
			break
		}
		best = n
	}
	if best == nil {
		return nil, 0
	}
	best.file.Pin()
	pc.useSeq++
	best.lastUse = pc.useSeq
	return best, best.depth
}

// release drops the pin match took. The last holder of a node that left
// the tree meanwhile (its family's home crashed; eviction never takes a
// held node) removes the node's file. Node files are pinned and unpinned
// only under pc.mu, so the count read here is the tree's own.
func (pc *prefixCache) release(n *prefixNode) {
	if pc == nil || n == nil {
		return
	}
	pc.mu.Lock()
	n.file.Unpin()
	last := n.file.Pins() == 0 && pc.nodes[n.tail] != n
	pc.mu.Unlock()
	if last {
		n.file.Remove()
	}
}

// noteAttach records one successful prefix attachment in the hit ledger:
// tokens the GPU did not prefill and the prefill time they saved.
func (pc *prefixCache) noteAttach(tokens int, saved time.Duration) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	pc.st.Hits++
	pc.st.HitTokens += int64(tokens)
	pc.st.SavedPrefill += saved
	pc.mu.Unlock()
}

// insert commits every chunk boundary of the just-prefilled prompt into
// the tree, adopting the prefix pages from f (which the caller still
// holds pinned and GPU-resident) and registering each new node file with
// the prefix directory under f's family. Over the cap it evicts idle
// leaves in LRU order. Best effort: an adoption failure (OOM racing this
// insert) stops at the boundary reached.
func (pc *prefixCache) insert(f *kvfs.File, toks []token.ID) {
	if pc == nil {
		return
	}
	root := f.Root()
	var created []*kvfs.File
	var failed *kvfs.File
	pc.mu.Lock()
	h := model.CtxHash(0)
	parent := model.CtxHash(0)
	prev := 0
	for b := pc.chunk; b <= len(toks); b += pc.chunk {
		h = model.HashContext(h, toks[prev:b], prev)
		prev = b
		if _, ok := pc.nodes[h]; ok {
			parent = h
			continue
		}
		nf := pc.k.fs.CreateAnon(kvfs.Admin)
		if err := nf.AdoptPrefix(f, b); err != nil {
			failed = nf
			break
		}
		pc.seq++
		pc.useSeq++
		pc.nodes[h] = &prefixNode{
			tail:    h,
			depth:   b,
			parent:  parent,
			file:    nf,
			root:    root,
			seq:     pc.seq,
			lastUse: pc.useSeq,
		}
		if p, ok := pc.nodes[parent]; ok {
			p.children++
		}
		pc.st.Insertions++
		created = append(created, nf)
		parent = h
	}
	evicted := pc.evictOverCapLocked()
	pc.mu.Unlock()
	// File removal and registration run outside pc.mu: Remove may fire the
	// KVFS release hook, and none of it needs the tree lock.
	if failed != nil {
		failed.Remove()
	}
	for _, vf := range evicted {
		vf.Remove()
	}
	for _, nf := range created {
		// Registered in the prefix directory under f's family, like a
		// request file, and tracked by the memory daemon as ownerless
		// (pid 0): the daemon may offload or spill a leaf's exclusive
		// tail pages like any cold file, while shared interior pages stay
		// GPU-pinned by refcount.
		pc.k.dir.observe(nf, root)
		pc.k.kvd.Track(nf, 0, nil)
	}
}

// evictOverCapLocked drops idle leaves (no children, file unpinned), least
// recently used first, until the tree fits maxNodes, returning the files
// to remove. Evicting a leaf may expose its parent as the next victim, so
// it sweeps to a fixpoint. Caller holds pc.mu.
func (pc *prefixCache) evictOverCapLocked() []*kvfs.File {
	var victims []*kvfs.File
	for len(pc.nodes) > pc.maxNodes {
		var leaves []*prefixNode
		for _, n := range pc.nodes {
			if n.children == 0 && n.file.Pins() == 0 {
				leaves = append(leaves, n)
			}
		}
		if len(leaves) == 0 {
			break
		}
		sort.Slice(leaves, func(i, j int) bool {
			if leaves[i].lastUse != leaves[j].lastUse {
				return leaves[i].lastUse < leaves[j].lastUse
			}
			return leaves[i].seq < leaves[j].seq
		})
		before := len(pc.nodes)
		for _, n := range leaves {
			if len(pc.nodes) <= pc.maxNodes {
				break
			}
			delete(pc.nodes, n.tail)
			if p, ok := pc.nodes[n.parent]; ok {
				p.children--
			}
			victims = append(victims, n.file)
			pc.st.Evictions++
		}
		if len(pc.nodes) == before {
			break
		}
	}
	return victims
}

// dropFamilies forgets every node of the prompt families the prefix
// directory just dropped (their home replica crash-restarted). A family is
// whole subtrees — a child extends its parent's tokens, so it has the
// parent's root — and no node is left dangling below a missing parent.
// Idle nodes' files are removed here; a pinned node's is mid-attach and
// goes at release.
func (pc *prefixCache) dropFamilies(roots map[model.CtxHash]bool) {
	if pc == nil || len(roots) == 0 {
		return
	}
	pc.mu.Lock()
	var victims []*prefixNode
	for _, n := range pc.nodes {
		if roots[n.root] {
			victims = append(victims, n)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	var idle []*kvfs.File
	for _, n := range victims {
		delete(pc.nodes, n.tail)
		pc.st.Invalidations++
		if n.file.Pins() == 0 {
			idle = append(idle, n.file)
		}
	}
	pc.mu.Unlock()
	for _, f := range idle {
		f.Remove()
	}
}

// stats returns a snapshot. Nil-safe: a kernel without the cache reports
// the zero value.
func (pc *prefixCache) stats() PrefixCacheStats {
	if pc == nil {
		return PrefixCacheStats{}
	}
	pc.mu.Lock()
	st := pc.st
	st.Enabled, st.ChunkTokens, st.Nodes = true, pc.chunk, len(pc.nodes)
	snap := make([]*prefixNode, 0, len(pc.nodes))
	for _, n := range pc.nodes {
		snap = append(snap, n)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].seq < snap[j].seq })
	files := make([]*kvfs.File, 0, len(snap))
	for _, n := range snap {
		files = append(files, n.file)
	}
	pc.mu.Unlock()
	for _, f := range files {
		// Attribute each node's own (last) chunk: shared interior pages
		// are GPU-pinned, so any non-GPU pages of a node file are its own
		// chunk's.
		_, _, disk := f.ResidentTokens()
		if disk > pc.chunk {
			disk = pc.chunk
		}
		st.SpilledTokens += disk
		st.ResidentTokens += pc.chunk - disk
	}
	return st
}
