// Kernel-wide radix prefix cache: automatic cross-job KV deduplication
// (SGLang/RadixAttention-style). Two independent jobs that submit the same
// preamble pay its prefill once: every committed prefill leaves its
// chunk-aligned prefixes in a kvfs.PrefixTree, and a later prefill whose
// prompt extends a cached prefix attaches it by refcounted COW share
// (kvfs.File.AdoptPrefix) and submits only the uncached tail to the GPU.
//
// The cache is the kernel's glue around the tree. Each node file is
// registered in the prefix directory under its family's root and tracked
// by the memory daemon as ownerless, so a leaf's exclusive tail pages may
// be offloaded or spilled like any cold file (a match loads them back in
// ensureResident); interior pages are shared and stay on the GPU. The glue
// keeps the hit ledger and the stats, and runs the tree's one eviction
// routine on two triggers: after an insert, until the tree fits MaxNodes,
// and at the space gate (Ctx.allocUnderPressure), before each wait, until
// a GPU page is freed. A replica crash drops the families the prefix
// directory homed there.
package core

import (
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
	// Insertions counts nodes created, Evictions idle leaves dropped by
	// the MaxNodes cap or at the space gate, Invalidations nodes dropped
	// by replica crashes.
	Insertions    int64 `stats:"insertions"`
	Evictions     int64 `stats:"evictions"`
	Invalidations int64 `stats:"invalidations"`
}

// prefixCache is the kernel's glue around its radix tree. All methods are
// safe for concurrent use and nil-safe, so a kernel without the cache pays
// only nil checks.
type prefixCache struct {
	k        *Kernel
	tree     *kvfs.PrefixTree
	maxNodes int

	// st holds the counters stats reports, bumped in place under mu; the
	// configuration echo, Nodes and the token attribution are filled in
	// at snapshot.
	mu sync.Mutex
	st PrefixCacheStats
}

// newPrefixCache assembles a cache for k. Returns nil when cfg is
// disabled.
func newPrefixCache(k *Kernel, cfg PrefixConfig) *prefixCache {
	if !cfg.Enabled {
		return nil
	}
	chunk := cfg.ChunkTokens
	if chunk <= 0 {
		chunk = DefaultPrefixChunk
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultPrefixMaxNodes
	}
	return &prefixCache{k: k, tree: kvfs.NewPrefixTree(k.fs, chunk), maxNodes: maxNodes}
}

// match returns the deepest cached node for the prompt with its file
// pinned, a hold the caller must release (kvfs.PrefixTree.Match).
func (pc *prefixCache) match(toks []token.ID) (*kvfs.PrefixNode, int) {
	if pc == nil {
		return nil, 0
	}
	pc.mu.Lock()
	pc.st.Lookups++
	pc.mu.Unlock()
	return pc.tree.Match(toks)
}

// release drops the pin match took.
func (pc *prefixCache) release(n *kvfs.PrefixNode) {
	if pc == nil || n == nil {
		return
	}
	pc.tree.Release(n)
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
// holds pinned and GPU-resident), registers each new node file with the
// prefix directory under f's family and with the memory daemon, and only
// then evicts idle leaves until the tree fits MaxNodes, so a node evicted
// at once is registered before its removal notice takes it out again.
func (pc *prefixCache) insert(f *kvfs.File, toks []token.ID) {
	if pc == nil {
		return
	}
	created := pc.tree.Insert(f, toks)
	root := f.Root()
	for _, nf := range created {
		pc.k.dir.observe(nf, root)
		pc.k.kvd.Track(nf, 0, nil)
	}
	evicted := pc.tree.EvictUntil(func() bool { return pc.tree.Len() <= pc.maxNodes })
	pc.mu.Lock()
	pc.st.Insertions += int64(len(created))
	pc.st.Evictions += int64(evicted)
	pc.mu.Unlock()
}

// freeGPU is the space gate's eviction trigger: it evicts idle leaves
// until the GPU tier has gained free space — at least one page — or no
// idle leaf is left, and reports whether it gained any.
func (pc *prefixCache) freeGPU() bool {
	if pc == nil {
		return false
	}
	free := pc.k.fs.GPUFreeTokens()
	gained := func() bool { return pc.k.fs.GPUFreeTokens() > free }
	evicted := pc.tree.EvictUntil(gained)
	pc.mu.Lock()
	pc.st.Evictions += int64(evicted)
	pc.mu.Unlock()
	return gained()
}

// dropFamilies forgets every node of the prompt families the prefix
// directory just dropped (their home replica crash-restarted).
func (pc *prefixCache) dropFamilies(roots map[model.CtxHash]bool) {
	if pc == nil {
		return
	}
	dropped := pc.tree.DropRoots(roots)
	pc.mu.Lock()
	pc.st.Invalidations += int64(dropped)
	pc.mu.Unlock()
}

// stats returns a snapshot. Nil-safe: a kernel without the cache reports
// the zero value.
func (pc *prefixCache) stats() PrefixCacheStats {
	if pc == nil {
		return PrefixCacheStats{}
	}
	pc.mu.Lock()
	st := pc.st
	pc.mu.Unlock()
	files := pc.tree.Files()
	chunk := pc.tree.Chunk()
	st.Enabled, st.ChunkTokens, st.Nodes = true, chunk, len(files)
	for _, f := range files {
		// Attribute each node's own (last) chunk: shared interior pages
		// are GPU-pinned, so any non-GPU pages of a node file are its own
		// chunk's.
		_, _, disk := f.ResidentTokens()
		if disk > chunk {
			disk = chunk
		}
		st.SpilledTokens += disk
		st.ResidentTokens += chunk - disk
	}
	return st
}
