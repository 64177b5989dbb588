package lip

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/token"
)

// Branch is one parallel generation outcome.
type Branch struct {
	Index  int
	Result GenResult
	Err    error
	// Score is the cumulative log-probability of the branch under its own
	// sampling distribution, usable for ranking hypotheses.
	Score float64
}

// ParallelGenerate implements the paper's Figure 2 as a library call: fork
// the base session's KV prefix once per suffix, spawn one thread per
// branch, generate concurrently, and join. Branch i prefills suffixes[i]
// (which may be empty) and then generates under opts, with the sampler
// seed offset by the branch index so branches decorrelate.
//
// Concurrent branches issue concurrent pred calls, which the batch
// inference scheduler coalesces into shared GPU steps — the efficiency
// the paper's two-level scheduling is designed around.
func ParallelGenerate(base *Session, suffixes []string, opts GenOptions) ([]Branch, error) {
	if !base.ready && anyEmpty(suffixes) {
		return nil, ErrNoDist
	}
	branches := make([]Branch, len(suffixes))
	var mu sync.Mutex
	threads := make([]*core.Thread, len(suffixes))
	for i, suffix := range suffixes {
		i, suffix := i, suffix
		th, err := base.ctx.Spawn(func(tc *core.Ctx) error {
			s, err := base.forkInto(tc)
			if err != nil {
				return err
			}
			defer s.Close()
			if suffix != "" {
				if _, err := s.Prefill(suffix); err != nil {
					return err
				}
			}
			o := opts
			if opts.Sampler != nil {
				sp := *opts.Sampler
				sp.Seed = sp.Seed*1_000_003 + uint64(i+1)
				o.Sampler = &sp
			}
			var score float64
			stream := o.Stream
			o.Stream = func(tok token.ID) {
				score += LogProb(s.last, tok)
				if stream != nil {
					stream(tok)
				}
			}
			res, err := Generate(s, o)
			mu.Lock()
			branches[i] = Branch{Index: i, Result: res, Err: err, Score: score}
			mu.Unlock()
			return err
		})
		if err != nil {
			return nil, err
		}
		threads[i] = th
	}
	for i, th := range threads {
		if err := th.Join(); err != nil && branches[i].Err == nil {
			branches[i].Err = err
		}
	}
	return branches, nil
}

func anyEmpty(suffixes []string) bool {
	for _, s := range suffixes {
		if s == "" {
			return true
		}
	}
	return false
}

// Best returns the successful branch with the highest score.
func Best(branches []Branch) (Branch, error) {
	best := -1
	for i, b := range branches {
		if b.Err != nil {
			continue
		}
		if best < 0 || b.Score > branches[best].Score {
			best = i
		}
	}
	if best < 0 {
		return Branch{}, fmt.Errorf("lip: no successful branch")
	}
	return branches[best], nil
}
