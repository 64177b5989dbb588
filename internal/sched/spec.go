package sched

import "fmt"

// SpecCall configures executor-level speculative decoding for one decode
// call. It is the promotion of internal/lip's SpeculativeGenerate from
// library code (where the draft and verify passes are separate pred
// syscalls, each paying its own scheduling round trip) into the GPU step
// loop itself: each iteration, the executor charges a draft pass that
// proposes up to Window tokens on the cheap Draft model, then verifies
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
	// Window is the draft window: how many tokens the draft model
	// proposes per iteration, cut only by the run's end. It is a
	// constant for the call's life (docs/EXPERIMENTS.md, "Why the draft
	// window is a constant"). Zero means DefaultSpecWindow; otherwise it
	// must lie in [1, DefaultSpecMaxWindow].
	Window int
	// Accept[i] reports whether the draft's proposal for the call's i-th
	// decode position equals the token the run commits there. The
	// proposal is the run's own draw applied to the draft's distribution:
	// its argmax for a greedy run, and for a seeded-sampled one the draw at
	// the same index of the run's sampler stream — a coupled draw standing
	// in for speculative sampling's min(1, p/q) test, so a position is
	// accepted where the two models' distributions lead that draw to the
	// same token (always, where the draft returns the target's own
	// distribution). A spec round starting at position p accepts the
	// leading run of true values in Accept[p:p+window] and takes its
	// correction token from the verify pass. Length must be at least
	// Tokens-1 (the final position never needs a draft — the plain verify
	// step produces it).
	Accept []bool
}

// DefaultSpecWindow is the classic sweet spot for ~0.8 per-token draft
// agreement; DefaultSpecMaxWindow is the largest window a call may ask
// for, which keeps a draft from speculating past what one iteration can
// usefully verify.
const (
	DefaultSpecWindow    = 4
	DefaultSpecMaxWindow = 8
)

// specState is the executor-side speculation state of one call. It is
// touched only by the owning replica actor.
type specState struct {
	draft  string
	window int
	accept []bool
}

// newSpecState validates a submitted SpecCall against the call that
// carries it and builds the executor-side state.
func (s *Scheduler) newSpecState(meta Call) (*specState, error) {
	sp := meta.Spec
	if !meta.Decode {
		return nil, fmt.Errorf("sched: speculative decoding requires a decode call (Spec set but Decode false)")
	}
	if s.prio.Quantum() <= 0 {
		return nil, fmt.Errorf("sched: speculative decoding requires an iteration-level priority policy (have %q; run-to-completion policies never reach a draft/verify boundary)", s.prio.Name())
	}
	if _, ok := s.models[sp.Draft]; !ok {
		return nil, fmt.Errorf("sched: unknown draft model %q", sp.Draft)
	}
	if sp.Draft == meta.Model {
		return nil, fmt.Errorf("sched: draft model %q is the target model (speculation needs a cheaper draft)", sp.Draft)
	}
	w := sp.Window
	if w == 0 {
		w = DefaultSpecWindow
	}
	if w < 1 || w > DefaultSpecMaxWindow {
		return nil, fmt.Errorf("sched: invalid draft window %d (need 1 <= Window <= %d)", w, DefaultSpecMaxWindow)
	}
	if len(sp.Accept) < meta.Tokens-1 {
		return nil, fmt.Errorf("sched: acceptance bitmap covers %d positions, need %d (Tokens-1)", len(sp.Accept), meta.Tokens-1)
	}
	return &specState{draft: sp.Draft, window: w, accept: sp.Accept}, nil
}
