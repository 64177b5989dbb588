package lip

import (
	"fmt"

	"repro/internal/token"
)

// DefaultDecodeChunk bounds how many tokens GenerateDecode commits per
// PredDecode call when DecodeOptions.Chunk is unset. Chunking keeps
// streaming incremental — observers see tokens as each chunk's GPU work
// completes — without paying a syscall per token.
const DefaultDecodeChunk = 64

// DecodeOptions configure GenerateDecode. The decode-run path is greedy
// and unconstrained by design: samplers, constraints, and transforms need
// the program in the loop after every token, which is exactly the
// per-token round trip Generate provides and GenerateDecode avoids.
type DecodeOptions struct {
	// MaxTokens bounds the generation length (required, > 0).
	MaxTokens int
	// Stop halts generation after tok was produced; EOS always stops.
	// Matching Generate, a Stop-terminated run reports its final token
	// but does not commit it to the KV file.
	Stop func(tok token.ID) bool
	// Stream receives each token once the chunk committing it completes.
	Stream func(tok token.ID)
	// Chunk bounds tokens per PredDecode call; <= 0 means
	// DefaultDecodeChunk.
	Chunk int
}

// GenerateDecode runs greedy unconstrained generation as a decode run:
// the whole greedy chain is computed up front from the deterministic
// model — the same trick the kernel's speculative verifier relies on —
// and committed in chunked PredDecode calls, so the GPU advances the run
// under autoregressive decode physics (one token per iteration, or a
// verified draft window per iteration when the kernel enables
// speculative decoding). Billing and results are identical to Generate
// with greedy sampling; only the number of syscalls and the step-loop
// schedule differ.
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

	// Walk the greedy chain before spending any GPU time. Extend mirrors
	// what kvfs.Append will do at commit, so position i's hash here equals
	// the context hash PredDecode's verifier sees ahead of token i. Only
	// the argmax is read, so each position's distribution stays unbuilt.
	var res GenResult
	h := s.kv.Tail()
	pos := s.kv.Len()
	nCommit := 0 // a Stop-terminated run leaves its final token uncommitted
	for len(res.Tokens) < opts.MaxTokens {
		tok := m.Defer(h).Greedy()
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
	}

	for done := 0; done < nCommit; {
		n := min(chunk, nCommit-done)
		toks := res.Tokens[done : done+n]
		base := s.kv.Len()
		positions := make([]int, n)
		for i := range positions {
			positions[i] = base + i
		}
		dists, err := s.ctx.PredDecode(s.kv, toks, positions)
		if err != nil {
			res.Tokens = res.Tokens[:done]
			return res, err
		}
		s.last = dists[len(dists)-1]
		s.ready = true
		if opts.Stream != nil {
			for _, tok := range toks {
				opts.Stream(tok)
			}
		}
		done += n
	}
	if nCommit < len(res.Tokens) && opts.Stream != nil {
		opts.Stream(res.Tokens[len(res.Tokens)-1])
	}
	res.ConstraintDone = res.HitEOS || len(res.Tokens) == opts.MaxTokens
	return res, nil
}
