package baseline

import (
	"errors"
	"sync"
	"time"

	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/simclock"
	"repro/internal/token"
)

var errEmptyPrompt = errors.New("baseline: empty prompt")

// VLLM models vLLM with automatic prefix caching: prompts are matched
// against a server-wide content-addressed trie of block-aligned prefixes,
// hits skip prefill, and a server-chosen LRU policy evicts cached blocks
// under memory pressure. This is exactly the design the paper's §2.1
// critiques: the cache works, but its policy is global and opaque — an
// application that knows its topic popularity cannot pin what it knows
// will be reused.
type VLLM struct {
	e *engine

	mu      sync.Mutex
	root    *cacheNode
	entries map[*cacheNode]struct{} // nodes holding a cached file
	blockTk int
}

type cacheNode struct {
	key      model.CtxHash
	children map[model.CtxHash]*cacheNode
	file     *kvfs.File // prefix snapshot; nil for interior/root nodes
	tokens   int        // prefix length in tokens
	lastUse  time.Duration
}

// NewVLLM starts a vLLM-like server on clk.
func NewVLLM(clk *simclock.Clock, cfg Config) *VLLM {
	e := newEngine(clk, cfg)
	return &VLLM{
		e:       e,
		root:    &cacheNode{children: map[model.CtxHash]*cacheNode{}},
		entries: map[*cacheNode]struct{}{},
		blockTk: e.fs.Config().PageTokens,
	}
}

// Name implements Server.
func (s *VLLM) Name() string { return "vllm-sim" }

// Stats implements Server.
func (s *VLLM) Stats() Stats { return s.e.stats() }

// boundaryHashes returns the rolling context hash at every block boundary
// of the prompt (positions are always 0-based for a fresh request).
func boundaryHashes(prompt []token.ID, block int) []model.CtxHash {
	var out []model.CtxHash
	var h model.CtxHash
	for i, t := range prompt {
		h = h.Extend(t, i)
		if (i+1)%block == 0 {
			out = append(out, h)
		}
	}
	return out
}

// lookup walks the trie and returns the deepest cached node covering a
// block-aligned prefix of the prompt.
func (s *VLLM) lookup(bounds []model.CtxHash) *cacheNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *cacheNode
	n := s.root
	for _, h := range bounds {
		child, ok := n.children[h]
		if !ok {
			break
		}
		if child.file != nil && !child.file.Removed() {
			best = child
		}
		n = child
	}
	if best != nil {
		best.lastUse = s.e.clk.Now()
	}
	return best
}

// insert adds cache entries for every block boundary of the prompt beyond
// already-cached depth, snapshotting the request file via fork+truncate
// (pages are shared copy-on-write, so snapshots are metadata-only).
func (s *VLLM) insert(f *kvfs.File, bounds []model.CtxHash) {
	now := s.e.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.root
	for i, h := range bounds {
		child, ok := n.children[h]
		if !ok {
			child = &cacheNode{
				key:      h,
				children: map[model.CtxHash]*cacheNode{},
				tokens:   (i + 1) * s.blockTk,
			}
			n.children[h] = child
		}
		if child.file == nil || child.file.Removed() {
			snap, err := f.Fork("server")
			if err == nil {
				if err := snap.Truncate(child.tokens); err == nil {
					child.file = snap
					s.entries[child] = struct{}{}
				} else {
					snap.Remove()
				}
			}
		}
		child.lastUse = now
		n = child
	}
}

// ensureSpace evicts least-recently-used cache entries until tokens of KV
// capacity are free or nothing evictable remains.
func (s *VLLM) ensureSpace(tokens int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.e.fs.GPUFreeTokens() < tokens && len(s.entries) > 0 {
		var victim *cacheNode
		for n := range s.entries {
			if victim == nil || n.lastUse < victim.lastUse ||
				(n.lastUse == victim.lastUse && n.tokens > victim.tokens) ||
				(n.lastUse == victim.lastUse && n.tokens == victim.tokens && n.key < victim.key) {
				//lint:allow maporder the comparison is a total order (lastUse, tokens, key), so map order cannot change the victim
				victim = n
			}
		}
		victim.file.Remove()
		victim.file = nil
		delete(s.entries, victim)
		s.e.evictions.Inc()
		// Note: eviction may free nothing if the pages are shared with
		// in-flight requests or deeper snapshots; the loop then evicts the
		// next victim. Admission control guarantees active requests alone
		// fit, so the loop terminates with enough space once the cache is
		// drained.
	}
}

// appendEvict is appendKV with eviction on pressure: free cache space for
// the incoming tokens, then retry once more aggressively on OOM.
func (s *VLLM) appendEvict(f *kvfs.File, toks []token.ID, pos []int) error {
	s.ensureSpace(len(toks) + s.blockTk)
	err := appendKV(f, toks, pos)
	if errors.Is(err, kvfs.ErrNoSpace) {
		s.ensureSpace(s.e.fs.Stats().GPUPageCap * s.blockTk) // drain the cache
		err = appendKV(f, toks, pos)
	}
	return err
}

// Complete implements Server.
func (s *VLLM) Complete(req Request) (Response, error) {
	if len(req.Prompt) == 0 {
		return Response{}, errEmptyPrompt
	}
	need := len(req.Prompt) + req.MaxTokens
	if err := s.e.admit(need); err != nil {
		return Response{}, err
	}
	defer s.e.gate.Release(need)

	bounds := boundaryHashes(req.Prompt, s.blockTk)
	var f *kvfs.File
	cached := 0
	if hit := s.lookup(bounds); hit != nil {
		fork, err := hit.file.Fork("server")
		if err == nil {
			f = fork
			cached = hit.tokens
		}
	}
	if f == nil {
		f = s.e.fs.CreateAnon("server")
	}
	defer f.Remove()

	s.e.requests.Inc()
	s.e.promptTokens.Add(int64(len(req.Prompt)))
	s.e.cachedTokens.Add(int64(cached))

	// A whole cached prompt needs no GPU work: decode reads the next
	// token from the cached context.
	if rest := req.Prompt[cached:]; len(rest) > 0 {
		if err := s.e.prefill(f, rest, positions(cached, len(rest)), s.appendEvict); err != nil {
			return Response{}, err
		}
	}
	s.insert(f, bounds)

	out, err := s.e.decode(f, req.MaxTokens, s.appendEvict)
	if err != nil {
		return Response{}, err
	}
	return Response{Tokens: out, CachedTokens: cached}, nil
}

var _ Server = (*VLLM)(nil)
var _ Server = (*TGI)(nil)
