// Package model implements the simulated large language model that stands
// in for the paper's Llama-13B-on-A100 substrate.
//
// The substitution keeps two properties the
// serving-system experiments depend on and discards the rest:
//
//  1. Causality/determinism. The next-token distribution is a pure function
//     of the visible context — a rolling 64-bit hash over (token, position)
//     pairs. Reusing a KV cache therefore produces bit-identical output to
//     recomputing it, and any cache-corruption bug changes generated text.
//  2. Cost. A calibrated CostModel (see cost.go) charges virtual time and
//     KV memory exactly the way a real GPU would: per-batch kernel
//     overhead, per-token prefill compute, per-sequence decode bandwidth.
//
// The numeric content of the distribution is pseudo-random (splitmix64
// expansion of the context hash) and carries no meaning.
package model

import "repro/internal/token"

// CtxHash is a rolling hash identifying a visible token context. The zero
// value denotes the empty context.
type CtxHash uint64

// Extend returns the hash of the context extended by tok at position pos.
func (h CtxHash) Extend(tok token.ID, pos int) CtxHash {
	x := uint64(h)
	x ^= splitmix64(uint64(uint32(tok))<<32 | uint64(uint32(pos)))
	return CtxHash(splitmix64(x))
}

// Mix folds another context hash into h, order-sensitively. KVFS uses Mix
// to derive the context identity of files assembled by Extract or Merge:
// the surviving tokens' KV tensors are reused rather than recomputed, so
// the resulting context is deterministic but intentionally different from
// a from-scratch recompute — exactly the approximation real KV-reuse
// systems (PromptCache-style composition, context pruning) make.
func (h CtxHash) Mix(other CtxHash) CtxHash {
	return CtxHash(splitmix64(splitmix64(uint64(h)) ^ uint64(other)))
}

// HashContext folds an entire token sequence starting at position startPos.
func HashContext(h CtxHash, toks []token.ID, startPos int) CtxHash {
	for i, t := range toks {
		h = h.Extend(t, startPos+i)
	}
	return h
}

// Config describes a simulated model. All fields must be positive.
type Config struct {
	Name string
	// Seed differentiates models: two models with different seeds produce
	// unrelated distributions for the same context.
	Seed uint64
	// VocabSize bounds the token IDs the model can emit.
	VocabSize int
	// TopK is the number of explicit candidates in each Dist; probability
	// mass outside the candidates is approximated (see Dist.ProbOf).
	TopK int
	// EOSBias scales how quickly sampled generations terminate: the
	// end-of-sequence token receives up to this much probability mass,
	// varying by context. Zero disables spontaneous termination.
	EOSBias float64

	// AlignTarget, when set, makes this model a draft for the target: with
	// probability AlignProb (deterministically per context) Next returns
	// the target's distribution, modelling a small model that frequently
	// predicts the same next token. This is the regime where speculative
	// decoding pays off.
	AlignTarget *Model
	AlignProb   float64

	Cost CostModel
}

// Llama13B returns the configuration used throughout the paper's
// evaluation: Llama 13B served from one NVIDIA A100.
func Llama13B() Config {
	return Config{
		Name:      "llama-13b",
		Seed:      0x5f3759df,
		VocabSize: 32768,
		TopK:      64,
		EOSBias:   0.05,
		Cost:      A100Llama13B(),
	}
}

// DraftLlama1B returns a configuration for a small draft model used by the
// speculative-decoding experiments: ~10x cheaper per token.
func DraftLlama1B() Config {
	c := Llama13B()
	c.Name = "llama-1b-draft"
	c.Seed = 0x1b1b1b1b
	c.Cost = A100Llama1B()
	return c
}

// AlignedDraft returns a draft-model configuration that greedily agrees
// with target on the given fraction of contexts.
func AlignedDraft(target *Model, agreement float64) Config {
	c := DraftLlama1B()
	c.AlignTarget = target
	c.AlignProb = agreement
	return c
}

// Model is a deterministic pseudo-LLM.
type Model struct {
	cfg Config
}

// New returns a model for cfg.
func New(cfg Config) *Model {
	if cfg.VocabSize <= int(token.EOS) {
		panic("model: VocabSize too small")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 32
	}
	return &Model{cfg: cfg}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Name returns the model's name.
func (m *Model) Name() string { return m.cfg.Name }

// Next returns the next-token distribution for the context identified by h.
// It is pure: equal hashes yield equal distributions.
//
// An aligned draft (Config.AlignTarget) returns its target's distribution
// on the contexts where it agrees and an unrelated one elsewhere.
func (m *Model) Next(h CtxHash) Dist {
	x := uint64(h) ^ m.cfg.Seed
	if t := m.cfg.AlignTarget; t != nil {
		if m.agrees(h, m.cfg.AlignProb) {
			return t.Next(h)
		}
		x ^= 0xdeadbeef
	}
	return makeDist(x, m.cfg)
}

// Defer returns Next(h) unbuilt (see Dist): equal to it under every Dist
// method, at none of its cost until something reads it.
func (m *Model) Defer(h CtxHash) Dist {
	x := uint64(h) ^ m.cfg.Seed
	if t := m.cfg.AlignTarget; t != nil {
		if m.agrees(h, m.cfg.AlignProb) {
			return t.Defer(h)
		}
		x ^= 0xdeadbeef
	}
	return Dist{h: x, vocab: m.cfg.VocabSize, cfg: &m.cfg}
}

// Echoes reports whether m's distribution at h is target's own: m is a draft
// aligned to target and h is one of its agreeing contexts. It is exact — a
// fact about how Next(h) is built, not a comparison of values.
func (m *Model) Echoes(target *Model, h CtxHash) bool {
	return m.cfg.AlignTarget == target && m.agrees(h, m.cfg.AlignProb)
}

// agrees is the per-context coin an aligned draft flips: true on the given
// fraction of contexts, deterministically.
func (m *Model) agrees(h CtxHash, agreement float64) bool {
	coin := float64(splitmix64(uint64(h)^m.cfg.Seed^0xa9fee3) % 1e6)
	return coin < agreement*1e6
}

// splitmix64 is the SplitMix64 mixing function: a fast, well-distributed
// 64-bit permutation used to expand context hashes into distributions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
