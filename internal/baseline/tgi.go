package baseline

import (
	"repro/internal/simclock"
)

// TGI models Hugging Face Text Generation Inference as of the paper's
// comparison: continuous batching, no automatic prefix caching — every
// request prefills its full prompt from scratch.
type TGI struct {
	e *engine
}

// NewTGI starts a TGI-like server on clk.
func NewTGI(clk *simclock.Clock, cfg Config) *TGI {
	return &TGI{e: newEngine(clk, cfg)}
}

// Name implements Server.
func (s *TGI) Name() string { return "tgi-sim" }

// Stats implements Server.
func (s *TGI) Stats() Stats { return s.e.stats() }

// Complete implements Server.
func (s *TGI) Complete(req Request) (Response, error) {
	if len(req.Prompt) == 0 {
		return Response{}, errEmptyPrompt
	}
	need := len(req.Prompt) + req.MaxTokens
	if err := s.e.admit(need); err != nil {
		return Response{}, err
	}
	defer s.e.gate.Release(need)

	f := s.e.fs.CreateAnon("server")
	defer f.Remove()
	dists, err := s.e.pred(f, req.Prompt, positions(0, len(req.Prompt)))
	if err != nil {
		return Response{}, err
	}
	s.e.requests.Inc()
	s.e.promptTokens.Add(int64(len(req.Prompt)))
	out, err := s.e.decode(f, dists[len(dists)-1], req.MaxTokens)
	if err != nil {
		return Response{}, err
	}
	return Response{Tokens: out}, nil
}
