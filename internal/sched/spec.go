package sched

import "fmt"

// SpecCall configures executor-level speculative decoding for one decode
// call. It is the promotion of internal/lip's SpeculativeGenerate from
// library code (where the draft and verify passes are separate pred
// syscalls, each paying its own scheduling round trip) into the GPU step
// loop itself: each iteration, the executor charges a draft pass that
// proposes up to DefaultSpecWindow tokens on the cheap Draft model, then verifies
// them inside the call's own slice of the target step. Accepted draft
// tokens plus the verify pass's one correction/bonus token all retire in
// that single iteration, so per-step decode throughput multiplies by the
// expected accepted-run length instead of being pinned at one token.
//
// Acceptance is not simulated with randomness at execution time: the
// kernel precomputes the Accept bitmap from the deterministic model pair
// and the run's own deterministic draws (core.Ctx.PredDecode), so
// identically-seeded runs make identical speculation decisions.
type SpecCall struct {
	// Draft names the registered draft model whose cost profile the
	// executor charges for draft passes. It must be a different (cheaper)
	// model than the call's own.
	Draft string
	// Accept[i] reports whether the draft's proposal for the call's i-th
	// decode position equals the token the run commits there. The
	// proposal is the run's own draw applied to the draft's distribution:
	// its argmax for a greedy run, and for a seeded-sampled one the draw at
	// the same index of the run's sampler stream — a coupled draw standing
	// in for speculative sampling's min(1, p/q) test, so a position is
	// accepted where the two models' distributions lead that draw to the
	// same token (always, where the draft returns the target's own
	// distribution). A spec round starting at position p accepts the
	// leading run of true values in Accept[p:p+DefaultSpecWindow] and
	// takes its correction token from the verify pass. Length must be at
	// least Tokens-1 (the final position never needs a draft — the plain
	// verify step produces it).
	Accept []bool
}

// DefaultSpecWindow is the draft window: how many tokens the draft model
// proposes per round, cut only by the run's end. It is the classic sweet
// spot for ~0.8 per-token draft agreement, and a constant
// (docs/EXPERIMENTS.md, "Why the draft window is a constant").
const DefaultSpecWindow = 4

// specState is the executor-side speculation state of one call. It is
// touched only by the owning replica actor.
type specState struct {
	draft  string
	accept []bool
}

// newSpecState validates a submitted SpecCall against the call that
// carries it and builds the executor-side state.
func (s *Scheduler) newSpecState(meta Call) (*specState, error) {
	sp := meta.Spec
	if !meta.Decode {
		return nil, fmt.Errorf("sched: speculative decoding requires a decode call (Spec set but Decode false)")
	}
	if _, ok := s.models[sp.Draft]; !ok {
		return nil, fmt.Errorf("sched: unknown draft model %q", sp.Draft)
	}
	if sp.Draft == meta.Model {
		return nil, fmt.Errorf("sched: draft model %q is the target model (speculation needs a cheaper draft)", sp.Draft)
	}
	if len(sp.Accept) < meta.Tokens-1 {
		return nil, fmt.Errorf("sched: acceptance bitmap covers %d positions, need %d (Tokens-1)", len(sp.Accept), meta.Tokens-1)
	}
	return &specState{draft: sp.Draft, accept: sp.Accept}, nil
}
