package model

import (
	"math"
	"sort"

	"repro/internal/token"
)

// TokenProb pairs a token with its probability.
type TokenProb struct {
	Token token.ID
	Prob  float64
}

// Dist is a next-token distribution. As the paper notes (§2.3), a full
// distribution over a 100K vocabulary is ~200 KB; like real serving stacks,
// the simulated model materializes only the top-K candidates and exposes a
// queryable tail approximation for everything else. Probabilities over the
// candidates sum to 1-TailMass.
//
// A Dist from Model.Defer is unbuilt: it holds only the context hash and the
// model's configuration, and answers exactly as Model.Next's would. Greedy
// answers in closed form from mass and draw, building only where that form
// does not hold; every other reader builds the candidates through makeDist
// first. Methods have value receivers and nothing is cached, so an unbuilt
// Dist rebuilds on every such read — right for values nobody reads (the
// kernel's pred hands them out for positions a prefix-cache hit attached
// and for a decode run's non-final positions), reads only through Greedy
// (the speculation bitmap, lip.Generate's greedy chain walk) or reads once
// (a sampled or constrained chain walk's one draw per position, the
// bitmap's draft proposal for such a run), wrong for any other read in a
// loop: lip.Session keeps the last position's, always executed and so
// always from Next.
type Dist struct {
	h     uint64
	vocab int
	cands []TokenProb // in candidate order (see before)
	tail  float64     // mass reserved for non-candidate tokens
	cfg   *Config     // non-nil while unbuilt: cands is makeDist(h, *cfg)'s
}

// TailMass is the probability mass a Dist reserves for tokens outside its
// explicit candidate set.
const TailMass = 0.02

// before is the candidate order: descending probability, equal
// probabilities by ascending token.
func before(a, b TokenProb) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Token < b.Token
}

// order puts c in candidate order. Every producer here emits candidates
// already in that order or nearly always so (a geometric decay, a monotone
// map of an ordered slice), so one linear pass comes first, and it accepts
// only a slice whose every element is before its successor or identical to
// it. No NaN passes that, so an accepted slice has exactly one sorted
// arrangement, the one it is in; anything else gets the sort.
func order(c []TokenProb) {
	for i := 1; i < len(c); i++ {
		if !before(c[i-1], c[i]) && c[i-1] != c[i] {
			sort.Slice(c, func(i, j int) bool { return before(c[i], c[j]) })
			return
		}
	}
}

// mass is the arithmetic of makeDist's weights for context h. Candidate j
// (in draw order, duplicates and special ids skipped) gets probability
// w_j*scale, where w_0 = 1 and w_{j+1} = w_j*ratio; EOS gets eos. The
// weights depend on h alone, not on which ids fill them.
func mass(h uint64, cfg *Config) (ratio, scale, eos float64) {
	// Geometric decay with a context-dependent ratio in [0.55, 0.95] gives
	// distributions of varying entropy.
	ratio = 0.55 + 0.40*float64(splitmix64(h^1)%1024)/1024.0
	w := 1.0
	var sum float64
	for j := 0; j < cfg.TopK; j++ {
		sum += w
		w *= ratio
	}
	// Context-dependent EOS mass makes sampled generations terminate.
	eos = cfg.EOSBias * float64(splitmix64(h^0xe05)%1024) / 1024.0
	return ratio, (1 - TailMass - eos) / sum, eos
}

// draw is the i-th id of context h's candidate sequence.
func draw(h uint64, i, vocab int) token.ID {
	return token.ID(splitmix64(h^uint64(2+i)) % uint64(vocab))
}

func makeDist(h uint64, cfg Config) Dist {
	k := cfg.TopK
	d := Dist{h: h, vocab: cfg.VocabSize, tail: TailMass}
	d.cands = make([]TokenProb, 0, k+1)

	ratio, scale, eos := mass(h, &cfg)
	seen := make(map[token.ID]bool, k)
	w := 1.0
	for i := 0; len(d.cands) < k; i++ {
		id := draw(h, i, cfg.VocabSize)
		if token.IsSpecial(id) || seen[id] {
			continue
		}
		seen[id] = true
		d.cands = append(d.cands, TokenProb{Token: id, Prob: w * scale})
		w *= ratio
	}
	order(d.cands) // a no-op unless weights underflowed into ties
	if eos > 0 {
		// EOS is special, so no candidate ties with it on both fields and its
		// place among the ordered candidates is unique.
		e := TokenProb{Token: token.EOS, Prob: eos}
		at := sort.Search(len(d.cands), func(i int) bool { return before(e, d.cands[i]) })
		d.cands = append(d.cands, e)
		copy(d.cands[at+1:], d.cands[at:])
		d.cands[at] = e
	}
	return d
}

// built returns d with its candidates materialized.
func (d Dist) built() Dist {
	if d.cfg != nil {
		return makeDist(d.h, *d.cfg)
	}
	return d
}

// NewDist builds a distribution from explicit candidates, for user
// policies (watermarks, cascades) that rewrite model output. Candidate
// probabilities are rescaled to sum to 1-TailMass, preserving the original
// contract that non-candidate tokens keep a small queryable tail, so a
// rewritten distribution still composes with Mask-based constraints. The
// candidates may come in any order.
func NewDist(vocabSize int, cands []TokenProb) Dist {
	d := Dist{vocab: vocabSize, tail: TailMass}
	var sum float64
	for _, c := range cands {
		sum += c.Prob
		d.h = splitmix64(d.h ^ uint64(uint32(c.Token)))
	}
	if sum <= 0 {
		return d
	}
	scale := (1 - TailMass) / sum
	d.cands = make([]TokenProb, len(cands))
	for i, c := range cands {
		d.cands[i] = TokenProb{Token: c.Token, Prob: c.Prob * scale}
	}
	order(d.cands)
	return d
}

// Candidates returns the explicit candidates in descending probability
// order. The slice is shared; callers must not mutate it.
func (d Dist) Candidates() []TokenProb { return d.built().cands }

// Greedy returns the most probable token. An unbuilt Dist answers without
// building wherever greedy can.
func (d Dist) Greedy() token.ID {
	if d.cfg != nil {
		if tok, ok := greedy(d.h, d.cfg); ok {
			return tok
		}
	}
	d = d.built()
	if len(d.cands) == 0 {
		return token.EOS
	}
	return d.cands[0].Token
}

// greedy is makeDist(h, cfg).Greedy() in closed form. The first non-special
// id drawn is the first candidate, at weight 1 and so probability scale;
// when ratio*scale < scale, every later candidate's w_j*scale <= ratio*scale
// is strictly below it, so it leads unless EOS sorts before it. Where that
// premise fails (scale <= 0 or not finite, or a product rounding up to
// scale) ok is false and the caller builds.
func greedy(h uint64, cfg *Config) (tok token.ID, ok bool) {
	ratio, scale, eos := mass(h, cfg)
	if !(ratio*scale < scale) {
		return 0, false
	}
	top := TokenProb{Prob: scale}
	for i := 0; ; i++ {
		if top.Token = draw(h, i, cfg.VocabSize); !token.IsSpecial(top.Token) {
			break
		}
	}
	if e := (TokenProb{Token: token.EOS, Prob: eos}); eos > 0 && before(e, top) {
		return token.EOS, true
	}
	return top.Token, true
}

// VocabSize returns the vocabulary bound of the emitting model.
func (d Dist) VocabSize() int { return d.vocab }

// ProbOf returns the probability of an arbitrary token: the exact candidate
// probability when tok is a candidate, otherwise a deterministic share of
// the tail mass.
func (d Dist) ProbOf(tok token.ID) float64 {
	d = d.built()
	for _, c := range d.cands {
		if c.Token == tok {
			return c.Prob
		}
	}
	if d.vocab <= len(d.cands) {
		return 0
	}
	// Split tail mass unevenly but deterministically among non-candidates.
	u := float64(splitmix64(d.h^uint64(tok)^0x7a11)%1024) / 1024.0
	mean := d.tail / float64(d.vocab-len(d.cands))
	return mean * (0.5 + u)
}

// Entropy returns the Shannon entropy (nats) over the candidate set,
// ignoring the tail.
func (d Dist) Entropy() float64 {
	d = d.built()
	var e float64
	for _, c := range d.cands {
		if c.Prob > 0 {
			e -= c.Prob * math.Log(c.Prob)
		}
	}
	return e
}

// SampleAt inverts the candidate CDF at u in [0,1). Tail mass maps to the
// least probable candidate, so SampleAt always returns a candidate.
func (d Dist) SampleAt(u float64) token.ID {
	d = d.built()
	if len(d.cands) == 0 {
		return token.EOS
	}
	var acc float64
	for _, c := range d.cands {
		acc += c.Prob
		if u < acc {
			return c.Token
		}
	}
	return d.cands[len(d.cands)-1].Token
}

// Mask restricts the distribution to the allowed token set and
// renormalizes, the primitive constrained decoding builds on. Allowed
// tokens outside the candidate set enter with their tail probability, so a
// grammar can always make progress even when the model's top-K disagrees
// with it. Mask returns the zero Dist if allowed is empty.
func (d Dist) Mask(allowed []token.ID) Dist {
	d = d.built()
	out := Dist{h: d.h, vocab: d.vocab}
	var sum float64
	for _, tok := range allowed {
		p := d.ProbOf(tok)
		if p <= 0 {
			continue
		}
		out.cands = append(out.cands, TokenProb{Token: tok, Prob: p})
		sum += p
	}
	if sum == 0 {
		return out
	}
	for i := range out.cands {
		out.cands[i].Prob /= sum
	}
	order(out.cands)
	return out
}

// Temperature returns a copy of the distribution with probabilities
// raised to 1/temp and renormalized. temp <= 0 returns a one-hot greedy
// distribution; temp == 1 returns d unchanged.
func (d Dist) Temperature(temp float64) Dist {
	d = d.built()
	if temp == 1 {
		return d
	}
	out := Dist{h: d.h, vocab: d.vocab}
	if temp <= 0 {
		if len(d.cands) > 0 {
			out.cands = []TokenProb{{Token: d.Greedy(), Prob: 1}}
		}
		return out
	}
	out.cands = make([]TokenProb, len(d.cands))
	var sum float64
	for i, c := range d.cands {
		p := math.Pow(c.Prob, 1/temp)
		out.cands[i] = TokenProb{Token: c.Token, Prob: p}
		sum += p
	}
	for i := range out.cands {
		out.cands[i].Prob /= sum
	}
	order(out.cands)
	return out
}

// ApproxBytes returns the wire size of the full distribution this Dist
// stands for (vocab × fp16), the figure the paper cites when arguing the
// sampling loop cannot live client-side.
func (d Dist) ApproxBytes() int { return d.vocab * 2 }
