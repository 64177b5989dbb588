package lip

import (
	"repro/internal/model"
	"repro/internal/token"
)

// Sampler draws tokens from next-token distributions. The zero value is a
// greedy sampler. Sampling is deterministic: the sequence of draws is a
// pure function of Seed, so whole programs replay bit-identically.
type Sampler struct {
	// Temperature flattens (>1) or sharpens (<1) the distribution;
	// 0 means greedy.
	Temperature float64
	// TopK keeps only the k most probable candidates (0 = all).
	TopK int
	// TopP keeps the smallest candidate set with cumulative probability
	// >= TopP (0 or 1 = all). Applied after TopK.
	TopP float64
	// Seed selects the deterministic random stream.
	Seed uint64

	draws uint64
}

// Greedy returns the most probable token of d.
func Greedy(d model.Dist) token.ID { return d.Greedy() }

// uniform returns the n-th uniform in [0,1) of the sampler's stream, n
// counting from 1.
func (s *Sampler) uniform(n uint64) float64 {
	x := s.Seed + n*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Sample draws one token from d under the sampler's settings.
func (s *Sampler) Sample(d model.Dist) token.ID {
	tok, drew := s.sampleAt(d, s.draws+1)
	if drew {
		s.draws++
	}
	return tok
}

// sampleAt is the token Sample returns from d when draw n is next in the
// stream, and whether it spends that draw (greedy settings and an empty
// distribution spend none). It reads only the settings, so the same draw
// can be applied to another distribution: a decode run's coupled draft
// proposal (see Generate).
func (s *Sampler) sampleAt(d model.Dist, n uint64) (token.ID, bool) {
	if s.Temperature <= 0 {
		return d.Greedy(), false
	}
	d = d.Temperature(s.Temperature)
	cands := d.Candidates()
	if len(cands) == 0 {
		return token.EOS, false
	}
	if s.TopK > 0 && s.TopK < len(cands) {
		cands = cands[:s.TopK]
	}
	if s.TopP > 0 && s.TopP < 1 {
		var acc float64
		cut := len(cands)
		for i, c := range cands {
			acc += c.Prob
			if acc >= s.TopP {
				cut = i + 1
				break
			}
		}
		cands = cands[:cut]
	}
	var total float64
	for _, c := range cands {
		total += c.Prob
	}
	u := s.uniform(n) * total
	var acc float64
	for _, c := range cands {
		acc += c.Prob
		if u < acc {
			return c.Token, true
		}
	}
	return cands[len(cands)-1].Token, true
}

// SuppressEOS is a GenOptions.Transform that removes the end-of-sequence
// token from the distribution — the one-line "policy" a program installs
// when it wants unbounded generation (e.g. streaming with context
// pruning). Distributions without EOS pass through unchanged.
func SuppressEOS(d model.Dist, _ token.ID) model.Dist {
	cands := d.Candidates()
	hasEOS := false
	for _, c := range cands {
		if c.Token == token.EOS {
			hasEOS = true
			break
		}
	}
	if !hasEOS {
		return d
	}
	kept := make([]model.TokenProb, 0, len(cands)-1)
	for _, c := range cands {
		if c.Token != token.EOS {
			kept = append(kept, c)
		}
	}
	return model.NewDist(d.VocabSize(), kept)
}
