package lip

import (
	"sync"

	"repro/internal/core"
)

// Branch is one parallel generation outcome.
type Branch struct {
	Index  int
	Result GenResult
	Err    error
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
			res, err := Generate(s, o)
			mu.Lock()
			branches[i] = Branch{Index: i, Result: res, Err: err}
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
