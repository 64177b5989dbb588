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
	//
	//lint:allow testonly library surface: examples/streaming_test.go rewrites the stream with it
	Transform func(d model.Dist, prev token.ID) model.Dist
	// Stream receives each token the moment it exists: the first on the
	// calling thread before any pred is submitted, every later one on the
	// replica actor at the end of the GPU iteration that retired the
	// position before it. So Stream must not block on the clock.
	Stream func(tok token.ID)
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

// decodeChunk bounds how many tokens one PredDecode call commits: how much
// KV and budget a run claims ahead of the GPU. Streaming does not wait for
// a chunk; each token streams at the end of the iteration that made it.
const decodeChunk = 64

// Generate runs the autoregressive loop of the paper's Figure 2 against a
// prefilled session, or one holding a pending token, until EOS, the
// constraint completes, or MaxTokens.
//
// The model, the sampler, the constraint and the transform are all
// deterministic functions of the tokens so far, so the whole chain is
// walked before any GPU time is spent — at each position the transform,
// then the constraint's mask, then one draw, then Accept — and committed
// as a decode run: chunked PredDecode calls the GPU advances one token per
// iteration, or one verified draft window when the kernel speculates. The
// tokens, the sampler's draws and the billing are those of one Session.Step
// per token; without speculation each token even streams at the same
// virtual instant.
//
// Figure 2 preds a token only to read the distribution after it, so a run
// that ends at MaxTokens or on a completed constraint leaves its final
// token pending on the session (see Session). A run that ends on EOS
// commits every token, and so does one whose constraint is stuck or
// refuses a token, before the error returns. A token pending when Generate
// begins is the run's first position, and the run's first token streams
// when that position retires.
func Generate(s *Session, opts GenOptions) (GenResult, error) {
	g, err := newDecoder(s, opts)
	if err != nil {
		return GenResult{}, err
	}
	return g.finish(g.advance(g.carried + opts.MaxTokens))
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
// much of it the session's KV file holds and the stream has carried. The
// chain is the session's pending token, when one was carried in, followed
// by the run's own tokens; done and streamed count chain positions.
type decoder struct {
	s        *Session
	m        *model.Model
	opts     GenOptions
	sampler  *Sampler
	first    uint64 // the sampler's draw number for token 0
	res      GenResult
	chain    []token.ID
	carried  int          // 1 when chain[0] is the carried pending token
	masks    [][]token.ID // the constraint's allowed set at each token; nil unmasked
	done     int          // chain positions the KV file holds
	streamed int          // chain positions the stream has carried
	ended    bool         // the walk met EOS, a completed constraint or MaxTokens
}

func newDecoder(s *Session, opts GenOptions) (*decoder, error) {
	if opts.MaxTokens <= 0 {
		return nil, fmt.Errorf("lip: MaxTokens must be positive")
	}
	if !s.Primed() {
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
	g := &decoder{s: s, m: m, opts: opts, sampler: sampler, first: sampler.draws + 1}
	if tok, ok := s.Pending(); ok {
		g.chain, g.carried, g.streamed = []token.ID{tok}, 1, 1
	}
	return g, nil
}

// advance walks the chain until it is room+1 positions ahead of the KV
// file or ends, then commits up to room of the walked positions — all of
// them, unless the walk went past room or the run ended at MaxTokens or
// on a completed constraint, whose final token stays pending. A walk
// error returns once what was walked is committed.
func (g *decoder) advance(room int) error {
	werr := g.walk(room + 1)
	n := len(g.chain) - g.done
	if g.ended && !g.res.HitEOS {
		n-- // only a later pred reads past the final token
	}
	if err := g.commit(g.done + min(room, n)); err != nil {
		return err
	}
	return werr
}

// walk extends the chain until it is ahead positions ahead of the KV file
// or ends. Each position's distribution is the session's pending one, or
// past a carried or walked token the model's unbuilt one over the context
// hash kvfs.Append will give the tokens ahead of it — the hash
// PredDecode's verifier sees there too.
func (g *decoder) walk(ahead int) error {
	h, pos, d := g.s.kv.Tail(), g.s.kv.Len(), g.s.last
	for _, tok := range g.chain[g.done:] {
		h = h.Extend(tok, pos)
		pos++
		d = g.m.Defer(h)
	}
	c := g.opts.Constraint
	for !g.ended && len(g.chain)-g.done < ahead {
		j := len(g.chain) - g.carried
		if j == g.opts.MaxTokens {
			g.ended = true
			break
		}
		var allowed []token.ID
		d, allowed = g.shape(j, d)
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
		g.chain = append(g.chain, tok)
		g.res.Tokens = g.chain[g.carried:]
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
			prev = g.chain[g.carried+j-1]
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

// commit brings the KV file up to upto chain positions in chunked
// PredDecode calls. The run's proposal for token j is the walk's own draw
// j applied, under the same transform and mask, to the draft's
// distribution, so a speculating kernel accepts it under its one rule
// (core.DecodeRun.Draw); a carried token is an input, not a draw, and is
// proposed as itself. Position k streams when position k-1 retires, and
// position done before each call, a no-op once the last call's
// retirements carried it. On an error the result holds every token that
// exists — the one whose commit failed and any the stream carried past it
// — and, like the per-token loop's, neither end flag; a carried token
// whose commit failed stays pending.
func (g *decoder) commit(upto int) error {
	run := core.DecodeRun{
		Draw: func(i int, d model.Dist) token.ID {
			k := g.done + i
			if k < g.carried {
				return g.chain[k]
			}
			j := k - g.carried
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
		dists, err := g.s.ctx.PredDecode(g.s.model, g.s.kv, g.chain[g.done:g.done+n], positions, run)
		if err != nil {
			g.res = GenResult{Tokens: g.res.Tokens[:g.streamed-g.carried]}
			return err
		}
		g.s.last, g.s.ready, g.s.held = dists[n-1], true, false
		g.done += n
	}
}

// stream carries the walked tokens up to chain position upto to
// opts.Stream, once each. A count that goes back (after a replica
// crash-restart) carries nothing.
func (g *decoder) stream(upto int) {
	for ; g.streamed < min(upto, len(g.chain)); g.streamed++ {
		if g.opts.Stream != nil {
			g.opts.Stream(g.chain[g.streamed])
		}
	}
}

// finish leaves an uncommitted final token pending on the session and
// settles ConstraintDone, for a run that ended without an error.
func (g *decoder) finish(err error) (GenResult, error) {
	if err != nil {
		return g.res, err
	}
	if g.done < len(g.chain) {
		g.s.pending, g.s.held = g.chain[g.done], true
	}
	if g.opts.Constraint == nil {
		g.res.ConstraintDone = g.res.HitEOS || len(g.res.Tokens) == g.opts.MaxTokens
	} else if !g.res.ConstraintDone {
		g.res.ConstraintDone = g.opts.Constraint.Done()
	}
	return g.res, nil
}
