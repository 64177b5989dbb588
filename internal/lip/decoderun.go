package lip

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/token"
)

// DefaultDecodeChunk bounds how many tokens GenerateDecode commits per
// PredDecode call when DecodeOptions.Chunk is unset: how much KV and
// budget one call claims ahead of the GPU. Streaming does not wait for a
// chunk; each token streams at the end of the iteration that made it.
const DefaultDecodeChunk = 64

// DecodeOptions configure GenerateDecode. The decode-run path is greedy or
// seeded-sampled, and unconstrained by design: constraints and transforms
// need the program in the loop after every token, which is exactly the
// per-token round trip Generate provides and GenerateDecode avoids.
type DecodeOptions struct {
	// MaxTokens bounds the generation length (required, > 0).
	MaxTokens int
	// Sampler draws tokens; nil means greedy. Its stream advances exactly
	// as Generate's would.
	Sampler *Sampler
	// Stop halts generation after tok was produced; EOS always stops.
	// Matching Generate, a Stop-terminated run reports its final token
	// but does not commit it to the KV file.
	Stop func(tok token.ID) bool
	// Stream receives each token once it exists: token 0 before the run is
	// submitted, token i at the end of the GPU iteration that retired
	// position i-1 — without speculation, the virtual instant Generate
	// would stream it at. Every token after the first is streamed from the
	// replica actor, so Stream must not block on the clock.
	Stream func(tok token.ID)
	// Chunk bounds tokens per PredDecode call; <= 0 means
	// DefaultDecodeChunk.
	Chunk int
}

// GenerateDecode runs unconstrained generation as a decode run: the whole
// chain is computed up front from the deterministic model and sampler —
// the same trick the kernel's speculative verifier relies on — and
// committed in chunked PredDecode calls, so the GPU advances the run
// under autoregressive decode physics (one token per iteration, or a
// verified draft window per iteration when the kernel enables speculative
// decoding). Tokens, billing and the sampler's stream are identical to
// Generate with the same Sampler; only the number of syscalls and the
// step-loop schedule differ.
func GenerateDecode(s *Session, opts DecodeOptions) (GenResult, error) {
	if opts.MaxTokens <= 0 {
		return GenResult{}, fmt.Errorf("lip: MaxTokens must be positive")
	}
	if s.model != "" {
		return GenResult{}, fmt.Errorf("lip: GenerateDecode runs against the default model; session is on %q (use Generate)", s.model)
	}
	if !s.ready {
		return GenResult{}, ErrNoDist
	}
	m, err := s.ctx.Kernel().Model("")
	if err != nil {
		return GenResult{}, err
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = DefaultDecodeChunk
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = &Sampler{} // greedy
	}

	// Walk the chain before spending any GPU time, drawing one sample per
	// token in order as Generate does. A sampling sampler spends exactly one
	// draw per token (only the empty-candidates EOS that ends the walk
	// spends none), so token j is draw first+j, which the verifier applies
	// to the draft. Extend mirrors what kvfs.Append will do at commit, so
	// position i's hash here equals the context hash PredDecode's verifier
	// sees ahead of token i. Past the pending distribution each position's
	// is unbuilt, which a greedy sampler reads without building.
	var res GenResult
	first := sampler.draws + 1
	d := s.last
	h := s.kv.Tail()
	pos := s.kv.Len()
	nCommit := 0 // a Stop-terminated run leaves its final token uncommitted
	for len(res.Tokens) < opts.MaxTokens {
		tok := sampler.Sample(d)
		if tok == token.EOS {
			res.HitEOS = true
			break
		}
		res.Tokens = append(res.Tokens, tok)
		if opts.Stop != nil && opts.Stop(tok) {
			break
		}
		nCommit++
		h = h.Extend(tok, pos)
		pos++
		d = m.Defer(h)
	}

	var run core.DecodeRun
	done := 0 // positions committed by finished chunks
	if sampler.Temperature > 0 {
		run.Draw = func(i int, d model.Dist) token.ID {
			tok, _ := sampler.sampleAt(d, first+uint64(done+i))
			return tok
		}
	}
	streamed := 0
	stream := func(upto int) {
		for ; streamed < min(upto, len(res.Tokens)); streamed++ {
			opts.Stream(res.Tokens[streamed])
		}
	}
	if opts.Stream != nil {
		stream(1)
		// Position j's retirement brings token j+1 into existence.
		run.Progress = func(retired int) { stream(done + retired + 1) }
	}
	for done < nCommit {
		n := min(chunk, nCommit-done)
		toks := res.Tokens[done : done+n]
		base := s.kv.Len()
		positions := make([]int, n)
		for i := range positions {
			positions[i] = base + i
		}
		dists, err := s.ctx.PredDecode(s.kv, toks, positions, run)
		if err != nil {
			// Keep what was streamed: like Generate, the result never holds
			// less than its subscribers saw.
			res.Tokens = res.Tokens[:max(done, streamed)]
			return res, err
		}
		s.last = dists[len(dists)-1]
		s.ready = true
		done += n
	}
	res.ConstraintDone = res.HitEOS || len(res.Tokens) == opts.MaxTokens
	return res, nil
}
