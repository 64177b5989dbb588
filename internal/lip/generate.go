package lip

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/token"
)

// Constraint is the interface constrained decoding plugs into Generate.
// internal/grammar provides regex-DFA and JSON implementations; any user
// type works — the generation loop lives in the program, not the server
// (paper §2.3).
type Constraint interface {
	// Allowed returns the token set permitted in the current state. A nil
	// slice means unconstrained. Generate keeps the slice until the token
	// drawn under it is committed, so it must not be reused.
	Allowed() []token.ID
	// Accept advances the constraint by the chosen token.
	Accept(tok token.ID) error
	// Done reports whether the constraint permits stopping here.
	Done() bool
}

// ErrConstraintStuck indicates the constraint permitted no token.
var ErrConstraintStuck = errors.New("lip: constraint permits no token")

// GenOptions configure Generate.
type GenOptions struct {
	// MaxTokens bounds the generation length (required, > 0).
	MaxTokens int
	// Sampler draws tokens; nil means greedy.
	Sampler *Sampler
	// Constraint, when non-nil, masks every distribution.
	Constraint Constraint
	// Transform, when non-nil, rewrites each distribution before the
	// constraint masks it and the sampler draws, given the previous token
	// (token.PAD at the start): §2.3's policy-based generation —
	// watermarking, cascades, certified sampling — as user code.
	// Example_streaming pays for it through SuppressEOS. It must be a
	// function of its arguments alone: a speculating kernel applies it to
	// the draft model's distributions too.
	Transform func(d model.Dist, prev token.ID) model.Dist
	// Stream receives each token the moment it exists: the first on the
	// calling thread before any pred is submitted, every later one on the
	// replica actor at the end of the GPU iteration that retired the
	// position before it. So Stream must not block on the clock.
	Stream func(tok token.ID)
	// Terminal tells Generate that the session's file is removed once it
	// returns, so no distribution after the run is ever read. A run that
	// ends at MaxTokens then leaves its last token out of the file: it
	// still streams when the position before it retires and is still
	// returned, but costs no GPU iteration of its own. Runs ended by EOS
	// or a completed constraint are unchanged.
	Terminal bool
}

// GenResult reports a finished generation.
type GenResult struct {
	Tokens []token.ID
	HitEOS bool
	// ConstraintDone reports whether the constraint reached an accepting
	// state (always true when no constraint was set and EOS or MaxTokens
	// ended the run).
	ConstraintDone bool
}

// Text decodes the generated tokens with the session's tokenizer context.
func (r GenResult) Text(s *Session) string { return s.ctx.Detokenize(r.Tokens) }

// decodeChunk bounds how many tokens one PredDecode call commits: how much
// KV and budget a run claims ahead of the GPU. Streaming does not wait for
// a chunk; each token streams at the end of the iteration that made it.
const decodeChunk = 64

// Generate runs the autoregressive loop of the paper's Figure 2 against a
// prefilled session until EOS, the constraint completes, or MaxTokens.
//
// The model, the sampler, the constraint and the transform are all
// deterministic functions of the tokens so far, so the whole chain is
// walked before any GPU time is spent — at each position the transform,
// then the constraint's mask, then one draw, then Accept — and committed
// as a decode run: chunked PredDecode calls the GPU advances one token per
// iteration, or one verified draft window when the kernel speculates. The
// tokens, the sampler's draws and the billing are those of one Session.Step
// per token; without speculation each token even streams at the same
// virtual instant. A run the constraint completed reports its final token
// but does not commit it, and so does a Terminal run that reached
// MaxTokens: an N-token answer bills N-1 pred tokens and N-1 decode
// iterations instead of N. When the constraint is stuck or refuses a
// token, every token walked so far is committed before the error returns.
func Generate(s *Session, opts GenOptions) (GenResult, error) {
	g, err := newDecoder(s, opts)
	if err != nil {
		return GenResult{}, err
	}
	return g.finish(g.advance(opts.MaxTokens))
}

// Complete is the one-call convenience: prefill prompt into a fresh
// session over kv and generate up to maxTokens greedily.
func Complete(s *Session, prompt string, maxTokens int) (GenResult, error) {
	if _, err := s.Prefill(prompt); err != nil {
		return GenResult{}, err
	}
	return Generate(s, GenOptions{MaxTokens: maxTokens})
}

// decoder is one generation in flight: the chain walked so far, and how
// much of it the session's KV file holds and the stream has carried.
type decoder struct {
	s        *Session
	m        *model.Model
	opts     GenOptions
	sampler  *Sampler
	first    uint64 // the sampler's draw number for token 0
	res      GenResult
	masks    [][]token.ID // the constraint's allowed set at each token; nil unmasked
	done     int          // tokens the KV file holds
	streamed int          // tokens the stream has carried
	ended    bool         // the walk met EOS, a completed constraint or MaxTokens
}

func newDecoder(s *Session, opts GenOptions) (*decoder, error) {
	if opts.MaxTokens <= 0 {
		return nil, fmt.Errorf("lip: MaxTokens must be positive")
	}
	if !s.ready {
		return nil, ErrNoDist
	}
	m, err := s.ctx.Kernel().Model(s.model)
	if err != nil {
		return nil, err
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = &Sampler{} // greedy
	}
	return &decoder{s: s, m: m, opts: opts, sampler: sampler, first: sampler.draws + 1}, nil
}

// advance walks the chain until it is room+1 tokens ahead of the KV file
// or ends, then commits up to room of the walked tokens — all of them,
// unless the walk went past room, the constraint completed or a Terminal
// run reached MaxTokens. A walk error returns once what was walked is
// committed.
func (g *decoder) advance(room int) error {
	werr := g.walk(room + 1)
	n := len(g.res.Tokens) - g.done
	if g.res.ConstraintDone || g.opts.Terminal && g.ended && !g.res.HitEOS {
		n-- // the final token's KV would never be read
	}
	if err := g.commit(g.done + min(room, n)); err != nil {
		return err
	}
	return werr
}

// walk extends the chain until it is ahead tokens ahead of the KV file or
// ends. Each position's distribution is the session's pending one, or past
// it the model's unbuilt one over the context hash kvfs.Append will give
// the tokens ahead of it — the hash PredDecode's verifier sees there too.
func (g *decoder) walk(ahead int) error {
	h, pos, d := g.s.kv.Tail(), g.s.kv.Len(), g.s.last
	for _, tok := range g.res.Tokens[g.done:] {
		h = h.Extend(tok, pos)
		pos++
		d = g.m.Defer(h)
	}
	c := g.opts.Constraint
	for !g.ended && len(g.res.Tokens)-g.done < ahead {
		if len(g.res.Tokens) == g.opts.MaxTokens {
			g.ended = true
			break
		}
		var allowed []token.ID
		d, allowed = g.shape(len(g.res.Tokens), d)
		if allowed != nil && len(d.Candidates()) == 0 {
			return ErrConstraintStuck
		}
		tok := g.sampler.Sample(d)
		if tok == token.EOS {
			g.res.HitEOS, g.ended = true, true
			break
		}
		if c != nil {
			if err := c.Accept(tok); err != nil {
				return err
			}
			g.masks = append(g.masks, allowed)
		}
		g.res.Tokens = append(g.res.Tokens, tok)
		if c != nil && c.Done() {
			g.res.ConstraintDone, g.ended = true, true
			break
		}
		h = h.Extend(tok, pos)
		pos++
		d = g.m.Defer(h)
	}
	return nil
}

// shape turns d, a model's distribution ahead of token j, into the one
// token j is drawn from: the transform, then the constraint's mask — the
// one recorded at j once the walk has passed it, else the constraint's
// current one, which is returned too.
func (g *decoder) shape(j int, d model.Dist) (model.Dist, []token.ID) {
	if g.opts.Transform != nil {
		prev := token.PAD
		if j > 0 {
			prev = g.res.Tokens[j-1]
		}
		d = g.opts.Transform(d, prev)
	}
	if g.opts.Constraint == nil {
		return d, nil
	}
	var allowed []token.ID
	if j < len(g.masks) {
		allowed = g.masks[j]
	} else {
		allowed = g.opts.Constraint.Allowed()
	}
	if allowed != nil {
		d = d.Mask(allowed)
	}
	return d, allowed
}

// commit brings the KV file up to upto walked tokens in chunked PredDecode
// calls. The run's proposal for token j is the walk's own draw j applied,
// under the same transform and mask, to the draft's distribution, so a
// speculating kernel accepts it under its one rule (core.DecodeRun.Draw).
// Token j streams when position j-1 retires, and token done before each
// call, a no-op once the last call's retirements carried it. On an error
// the result holds every token that exists — the one whose commit failed
// and any the stream carried past it — and, like the per-token loop's,
// neither end flag.
func (g *decoder) commit(upto int) error {
	run := core.DecodeRun{
		Draw: func(i int, d model.Dist) token.ID {
			j := g.done + i
			d, _ = g.shape(j, d)
			tok, _ := g.sampler.sampleAt(d, g.first+uint64(j))
			return tok
		},
		Progress: func(retired int) { g.stream(g.done + retired + 1) },
	}
	for {
		g.stream(g.done + 1)
		if g.done >= upto {
			return nil
		}
		n, base := min(decodeChunk, upto-g.done), g.s.kv.Len()
		positions := make([]int, n)
		for i := range positions {
			positions[i] = base + i
		}
		dists, err := g.s.ctx.PredDecode(g.s.model, g.s.kv, g.res.Tokens[g.done:g.done+n], positions, run)
		if err != nil {
			g.res = GenResult{Tokens: g.res.Tokens[:g.streamed]}
			return err
		}
		g.s.last, g.s.ready = dists[n-1], true
		g.done += n
	}
}

// stream carries the walked tokens up to upto to opts.Stream, once each.
// A count that goes back (after a replica crash-restart) carries nothing.
func (g *decoder) stream(upto int) {
	for ; g.streamed < min(upto, len(g.res.Tokens)); g.streamed++ {
		if g.opts.Stream != nil {
			g.opts.Stream(g.res.Tokens[g.streamed])
		}
	}
}

// finish settles ConstraintDone for a run that ended without an error.
func (g *decoder) finish(err error) (GenResult, error) {
	if err != nil {
		return g.res, err
	}
	if g.opts.Constraint == nil {
		g.res.ConstraintDone = g.res.HitEOS || len(g.res.Tokens) == g.opts.MaxTokens
	} else if !g.res.ConstraintDone {
		g.res.ConstraintDone = g.opts.Constraint.Done()
	}
	return g.res, nil
}
