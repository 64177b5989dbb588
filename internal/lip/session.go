// Package lip is the standard library for LLM Inference Programs: the
// user-space conveniences a LIP author layers over the raw Symphony system
// calls (internal/core).
//
// Where core provides pred, KV files, threads, and tools, lip provides
// what Figure 2 of the paper writes by hand: tokenization-aware sessions,
// samplers, the autoregressive generation loop (optionally under a
// grammar constraint), speculative decoding, and shared-prefix parallel
// generation. Everything here is expressible by any user against the
// public syscall surface — that inversion of control is the paper's
// point.
package lip

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvfs"
	"repro/internal/model"
	"repro/internal/token"
)

// ErrNoDist indicates Generate was called before any Prefill established a
// next-token distribution.
var ErrNoDist = errors.New("lip: session has no pending distribution; call Prefill first")

// Session couples a KV file with a model choice and tracks the pending
// next-token distribution, so callers can alternate prefills and decode
// steps without managing positions by hand.
//
// A session can also hold one pending token: the last token of a
// generation, part of the context but not yet in the KV file. The paper's
// Figure 2 preds a sampled token only to get the distribution after it,
// so Generate leaves a run's final token pending when the run ended at
// MaxTokens or on a completed constraint, and only a later pred that reads
// past it pays its forward pass: PrefillTokens, Step and Generate carry it
// as their first position, and Fork and File commit it on its own. Close
// and Rollback drop it.
type Session struct {
	ctx     *core.Ctx
	kv      *kvfs.File
	model   string
	last    model.Dist // the distribution after the KV file's tokens
	ready   bool
	pending token.ID
	held    bool // pending is part of the context
}

// NewSession returns a session over kv using the kernel's default model.
func NewSession(ctx *core.Ctx, kv *kvfs.File) *Session {
	return &Session{ctx: ctx, kv: kv}
}

// WithModel switches the session to a named model (e.g. a draft model) and
// returns the session for chaining.
func (s *Session) WithModel(name string) *Session {
	s.model = name
	return s
}

// File hands out the session's KV file holding the whole context: a
// pending token is committed first, with a one-position pred, so whoever
// reads the file (KvFork, KvLink, KvMerge, another program) sees it.
func (s *Session) File() (*kvfs.File, error) {
	if err := s.commit(); err != nil {
		return nil, err
	}
	return s.kv, nil
}

// Ctx returns the session's thread context.
func (s *Session) Ctx() *core.Ctx { return s.ctx }

// Len returns the context length: the KV file's tokens plus a pending
// token.
func (s *Session) Len() int {
	if s.held {
		return s.kv.Len() + 1
	}
	return s.kv.Len()
}

// Pending returns the pending token. The boolean reports whether the
// session holds one.
func (s *Session) Pending() (token.ID, bool) { return s.pending, s.held }

// Last returns the pending next-token distribution. The boolean reports
// whether one exists; none does while a token is pending, since no pred
// has read past it yet.
func (s *Session) Last() (model.Dist, bool) { return s.last, s.ready && !s.held }

// Primed reports whether Generate can start: from the pending
// distribution, or past the pending token.
func (s *Session) Primed() bool { return s.ready || s.held }

// Prefill appends text to the context in one pred call and records the
// resulting next-token distribution.
func (s *Session) Prefill(text string) (model.Dist, error) {
	return s.PrefillTokens(s.ctx.Tokenize(text))
}

// PrefillTokens appends toks at the next positions in one pred call.
func (s *Session) PrefillTokens(toks []token.ID) (model.Dist, error) {
	if len(toks) == 0 {
		return s.last, nil
	}
	return s.pred(toks)
}

// Step appends one token (typically the one just sampled) and returns the
// distribution after it.
func (s *Session) Step(tok token.ID) (model.Dist, error) {
	return s.pred([]token.ID{tok})
}

// commit writes a pending token into the KV file with a one-position
// pred, so the file holds the whole context; it does nothing when no
// token is pending.
func (s *Session) commit() error {
	if !s.held {
		return nil
	}
	_, err := s.pred(nil)
	return err
}

// pred appends toks at the next positions, behind the pending token if
// one is held, in one pred call and records the distribution after them.
// A failed call leaves the session as it was.
func (s *Session) pred(toks []token.ID) (model.Dist, error) {
	if s.held {
		toks = append([]token.ID{s.pending}, toks...)
	}
	pos := make([]int, len(toks))
	base := s.kv.Len()
	for i := range pos {
		pos[i] = base + i
	}
	dists, err := s.ctx.PredModel(s.model, s.kv, toks, pos)
	if err != nil {
		return model.Dist{}, err
	}
	s.last, s.ready, s.held = dists[len(dists)-1], true, false
	return s.last, nil
}

// Fork clones the session: the new session shares the KV prefix
// copy-on-write and inherits the pending distribution. A pending token is
// committed first, so both sessions' files hold it.
func (s *Session) Fork() (*Session, error) {
	if err := s.commit(); err != nil {
		return nil, err
	}
	return s.forkInto(s.ctx)
}

// forkInto clones the session, which holds no pending token, for use by a
// different thread's ctx.
func (s *Session) forkInto(ctx *core.Ctx) (*Session, error) {
	kv, err := ctx.KvFork(s.kv)
	if err != nil {
		return nil, err
	}
	return &Session{ctx: ctx, kv: kv, model: s.model, last: s.last, ready: s.ready}, nil
}

// Rollback truncates the session's context to n tokens, a pending token
// counted (see Len). The pending distribution is invalidated unless n
// equals the current length or the KV file's.
func (s *Session) Rollback(n int) error {
	if n == s.Len() {
		return nil
	}
	if n != s.kv.Len() {
		if err := s.kv.Truncate(n); err != nil {
			return err
		}
		s.ready = false
	}
	s.held = false
	return nil
}

// Close removes the session's KV file and drops a pending token.
func (s *Session) Close() error {
	s.held = false
	return s.kv.Remove()
}

// String describes the session for diagnostics.
func (s *Session) String() string {
	name := s.model
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("session{model=%s len=%d ready=%v}", name, s.Len(), s.ready)
}
