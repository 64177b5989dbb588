package baseline

import (
	"errors"

	"repro/internal/kvfs"
	"repro/internal/simclock"
	"repro/internal/token"
)

var errEmptyPrompt = errors.New("baseline: empty prompt")

// VLLM models vLLM with automatic prefix caching: prompts are matched
// against a server-wide radix tree of block-aligned prefixes
// (kvfs.PrefixTree, the kernel's prefix cache's structure, with one node
// per KV page), hits skip prefill up to the prompt's last block, and a
// server-chosen LRU policy evicts cached leaves under memory pressure.
// This is exactly the design the paper's §2.1 critiques: the cache works,
// but its policy is global and opaque — an application that knows its
// topic popularity cannot pin what it knows will be reused.
type VLLM struct {
	e    *engine
	tree *kvfs.PrefixTree
}

// NewVLLM starts a vLLM-like server on clk.
func NewVLLM(clk *simclock.Clock, cfg Config) *VLLM {
	e := newEngine(clk, cfg)
	return &VLLM{e: e, tree: kvfs.NewPrefixTree(e.fs, e.fs.Config().PageTokens)}
}

// Name implements Server.
func (s *VLLM) Name() string { return "vllm-sim" }

// Stats implements Server.
func (s *VLLM) Stats() Stats { return s.e.stats() }

// evictUntil evicts idle cached leaves, least recently used first, until
// done holds or the cache has none left.
func (s *VLLM) evictUntil(done func() bool) {
	s.e.evictions.Add(int64(s.tree.EvictUntil(done)))
}

// appendEvict is appendKV with eviction on pressure: free cache space for
// the incoming tokens, then drain the cache and retry once on OOM.
func (s *VLLM) appendEvict(f *kvfs.File, toks []token.ID, pos []int) error {
	need := len(toks) + s.tree.Chunk()
	s.evictUntil(func() bool { return s.e.fs.GPUFreeTokens() >= need })
	err := appendKV(f, toks, pos)
	if errors.Is(err, kvfs.ErrNoSpace) {
		s.evictUntil(func() bool { return false })
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

	// A hit is attached by page sharing. The match stops short of the
	// prompt's last token, so even a fully cached prompt prefills its
	// last block: the first answer token needs that token's logits.
	f := s.e.fs.CreateAnon("server")
	defer f.Remove()
	cached := 0
	if hit, depth := s.tree.Match(req.Prompt); hit != nil {
		if f.AdoptPrefix(hit.File(), depth) == nil {
			cached = depth
		}
		s.tree.Release(hit)
	}

	s.e.requests.Inc()
	s.e.promptTokens.Add(int64(len(req.Prompt)))
	s.e.cachedTokens.Add(int64(cached))

	rest := req.Prompt[cached:]
	if err := s.e.prefill(f, rest, positions(cached, len(rest)), s.appendEvict); err != nil {
		return Response{}, err
	}
	s.tree.Insert(f, req.Prompt)

	out, err := s.e.decode(f, req.MaxTokens, s.appendEvict)
	if err != nil {
		return Response{}, err
	}
	return Response{Tokens: out, CachedTokens: cached}, nil
}

var _ Server = (*VLLM)(nil)
var _ Server = (*TGI)(nil)
