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
type Session struct {
	ctx   *core.Ctx
	kv    *kvfs.File
	model string
	last  model.Dist
	ready bool
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

// KV returns the session's KV file.
func (s *Session) KV() *kvfs.File { return s.kv }

// Ctx returns the session's thread context.
func (s *Session) Ctx() *core.Ctx { return s.ctx }

// Last returns the pending next-token distribution. The boolean reports
// whether one exists.
func (s *Session) Last() (model.Dist, bool) { return s.last, s.ready }

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
	pos := make([]int, len(toks))
	base := s.kv.Len()
	for i := range pos {
		pos[i] = base + i
	}
	dists, err := s.ctx.PredModel(s.model, s.kv, toks, pos)
	if err != nil {
		return model.Dist{}, err
	}
	s.last = dists[len(dists)-1]
	s.ready = true
	return s.last, nil
}

// Step appends one token (typically the one just sampled) and returns the
// distribution after it.
func (s *Session) Step(tok token.ID) (model.Dist, error) {
	dists, err := s.ctx.PredModel(s.model, s.kv, []token.ID{tok}, []int{s.kv.Len()})
	if err != nil {
		return model.Dist{}, err
	}
	s.last = dists[0]
	s.ready = true
	return s.last, nil
}

// Fork clones the session: the new session shares the KV prefix
// copy-on-write and inherits the pending distribution.
func (s *Session) Fork() (*Session, error) {
	kv, err := s.ctx.KvFork(s.kv)
	if err != nil {
		return nil, err
	}
	return &Session{ctx: s.ctx, kv: kv, model: s.model, last: s.last, ready: s.ready}, nil
}

// forkInto clones the session for use by a different thread's ctx.
func (s *Session) forkInto(ctx *core.Ctx) (*Session, error) {
	kv, err := ctx.KvFork(s.kv)
	if err != nil {
		return nil, err
	}
	return &Session{ctx: ctx, kv: kv, model: s.model, last: s.last, ready: s.ready}, nil
}

// Rollback truncates the session's context to n tokens. The pending
// distribution is invalidated unless n equals the current length.
func (s *Session) Rollback(n int) error {
	if n == s.kv.Len() {
		return nil
	}
	if err := s.kv.Truncate(n); err != nil {
		return err
	}
	s.ready = false
	return nil
}

// Close removes the session's KV file.
func (s *Session) Close() error { return s.kv.Remove() }

// String describes the session for diagnostics.
func (s *Session) String() string {
	name := s.model
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("session{model=%s len=%d ready=%v}", name, s.kv.Len(), s.ready)
}
