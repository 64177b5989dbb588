package model

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/token"
)

// referenceSort is the sort.Slice call makeDist, Mask and Temperature each
// made before they shared order, comparator and all, kept here as what order
// has to equal on every input.
func referenceSort(c []TokenProb) []TokenProb {
	sort.Slice(c, func(i, j int) bool {
		if c[i].Prob != c[j].Prob {
			return c[i].Prob > c[j].Prob
		}
		return c[i].Token < c[j].Token
	})
	return c
}

// refMakeDist is makeDist as it stood with that sort: EOS appended to the
// candidates and all of them sorted together.
func refMakeDist(h uint64, cfg Config) []TokenProb {
	var cands []TokenProb
	ratio := 0.55 + 0.40*float64(splitmix64(h^1)%1024)/1024.0
	seen := map[token.ID]bool{}
	w := 1.0
	var sum float64
	for i := 0; len(cands) < cfg.TopK; i++ {
		id := token.ID(splitmix64(h^uint64(2+i)) % uint64(cfg.VocabSize))
		if token.IsSpecial(id) || seen[id] {
			continue
		}
		seen[id] = true
		cands = append(cands, TokenProb{Token: id, Prob: w})
		sum += w
		w *= ratio
	}
	eos := cfg.EOSBias * float64(splitmix64(h^0xe05)%1024) / 1024.0
	scale := (1 - TailMass - eos) / sum
	for i := range cands {
		cands[i].Prob *= scale
	}
	if eos > 0 {
		cands = append(cands, TokenProb{Token: token.EOS, Prob: eos})
	}
	return referenceSort(cands)
}

func refTemperature(d Dist, temp float64) []TokenProb {
	out := make([]TokenProb, len(d.Candidates()))
	var sum float64
	for i, c := range d.Candidates() {
		out[i] = TokenProb{Token: c.Token, Prob: math.Pow(c.Prob, 1/temp)}
		sum += out[i].Prob
	}
	for i := range out {
		out[i].Prob /= sum
	}
	return referenceSort(out)
}

func refMask(d Dist, allowed []token.ID) []TokenProb {
	var out []TokenProb
	var sum float64
	for _, tok := range allowed {
		if p := d.ProbOf(tok); !(p <= 0) {
			out = append(out, TokenProb{Token: tok, Prob: p})
			sum += p
		}
	}
	if sum == 0 {
		return out
	}
	for i := range out {
		out[i].Prob /= sum
	}
	return referenceSort(out)
}

func refNewDist(cands []TokenProb) []TokenProb {
	var sum float64
	for _, c := range cands {
		sum += c.Prob
	}
	if sum <= 0 {
		return nil
	}
	out := make([]TokenProb, len(cands))
	for i, c := range cands {
		out[i] = TokenProb{Token: c.Token, Prob: c.Prob * ((1 - TailMass) / sum)}
	}
	return referenceSort(out)
}

// reversed returns c back to front: the input that is in order least.
func reversed(c []TokenProb) []TokenProb {
	out := slices.Clone(c)
	slices.Reverse(out)
	return out
}

// requireReferenceOrder demands that every producer of candidates agree with
// its reference on one context: makeDist, Temperature of it, a Mask over
// candidates from both ends and two tail tokens, listed back to front, and
// NewDist of the candidates back to front. It returns the built Dist.
func requireReferenceOrder(t *testing.T, h uint64, cfg Config, temps []float64) Dist {
	t.Helper()
	d := makeDist(h, cfg)
	requireSameCands(t, CtxHash(h), "makeDist", d.cands, refMakeDist(h, cfg))
	for _, temp := range temps {
		requireSameCands(t, CtxHash(h), fmt.Sprintf("Temperature(%v)", temp),
			d.Temperature(temp).cands, refTemperature(d, temp))
	}
	allowed := []token.ID{token.UNK, token.PAD}
	for i := len(d.cands) - 1; i >= 0; i -= 1 + len(d.cands)/16 {
		allowed = append(allowed, d.cands[i].Token)
	}
	requireSameCands(t, CtxHash(h), "Mask", d.Mask(allowed).cands, refMask(d, allowed))
	back := reversed(d.cands)
	requireSameCands(t, CtxHash(h), "NewDist", NewDist(cfg.VocabSize, back).cands, refNewDist(back))
	return d
}

// ties counts adjacent candidates of equal probability, where the order
// falls to the token.
func ties(c []TokenProb) int {
	n := 0
	for i := 1; i < len(c); i++ {
		if c[i].Prob == c[i-1].Prob {
			n++
		}
	}
	return n
}

// TestCandidateOrderMatchesReference holds the four producers to the sort
// they replaced, element for element, on the shapes the simulator runs
// (TopK 64) and the ones it does not: one candidate, a TopK at which the
// geometric weights underflow into runs of equal zeros, an EOS that usually
// sorts first, and temperatures that collapse neighbours (0.05 underflows
// the small end even at TopK 64). TopK 2000 gets a tenth of the contexts:
// each one there sorts some 1,900 tied candidates five times on either side,
// 2.6 ms in all, and a third of the first thousand already underflow.
func TestCandidateOrderMatchesReference(t *testing.T) {
	perCell := 10_000
	if testing.Short() {
		perCell = 500
	}
	temps := []float64{0.05, 0.4, 2.5, 50}
	for _, bias := range []float64{0, Llama13B().EOSBias, 0.9} {
		for _, topK := range []int{1, 8, 64, 2_000} {
			cfg := Llama13B()
			cfg.EOSBias, cfg.TopK = bias, topK
			t.Run(fmt.Sprintf("eos%v/top%d", bias, topK), func(t *testing.T) {
				t.Parallel()
				contexts := perCell
				if topK == 2_000 {
					contexts /= 10
				}
				built, cold := 0, 0
				for i := 0; i < contexts; i++ {
					h := splitmix64(uint64(i)) ^ cfg.Seed
					d := requireReferenceOrder(t, h, cfg, temps)
					built += ties(d.cands)
					if topK == 64 {
						cold += ties(d.Temperature(0.05).cands)
					}
				}
				// The grid reached the inputs the fallback exists for.
				if topK == 2_000 && built == 0 {
					t.Fatal("no weights underflowed into ties at TopK 2000")
				}
				if topK == 64 && cold == 0 {
					t.Fatal("Temperature(0.05) collapsed no neighbours at TopK 64")
				}
			})
		}
	}
}

// TestCandidateOrderHandBuiltTies covers the ties no context hash above
// produces on purpose.
func TestCandidateOrderHandBuiltTies(t *testing.T) {
	// An EOS whose mass equals a candidate's. With one candidate its weight
	// is 1 and its probability 0.98-eos, and eos = EOSBias*x/1024 is 0.49 to
	// the bit when EOSBias is 0.98 and the context draws x = 512.
	cfg := Llama13B()
	cfg.TopK, cfg.EOSBias = 1, 1-TailMass
	var h uint64
	for splitmix64(h^0xe05)%1024 != 512 {
		h++
	}
	d := requireReferenceOrder(t, h, cfg, []float64{0.4, 2.5})
	if len(d.cands) != 2 || d.cands[0].Token != token.EOS || d.cands[0].Prob != d.cands[1].Prob {
		t.Fatalf("want EOS first of two equal candidates, got %v", d.cands)
	}

	// Equal probabilities handed over with the tokens descending, alone and
	// among others: NewDist orders them, and Temperature and Mask keep the
	// ties and so the token order.
	for _, in := range [][]TokenProb{
		{{Token: 9, Prob: 0.5}, {Token: 5, Prob: 0.5}},
		{{Token: 40, Prob: 0.1}, {Token: 30, Prob: 0.3}, {Token: 20, Prob: 0.3}, {Token: 10, Prob: 0.3}, {Token: 50, Prob: 0}},
	} {
		nd := NewDist(100, in)
		requireSameCands(t, 0, "NewDist", nd.cands, refNewDist(in))
		if nd.cands[0].Token >= nd.cands[1].Token || nd.cands[0].Prob != nd.cands[1].Prob {
			t.Fatalf("NewDist(%v) = %v, want the tied candidates first, lower token leading", in, nd.cands)
		}
		requireSameCands(t, 0, "Temperature", nd.Temperature(0.4).cands, refTemperature(nd, 0.4))
		var allowed []token.ID
		for _, c := range in {
			allowed = append(allowed, c.Token)
		}
		requireSameCands(t, 0, "Mask", nd.Mask(allowed).cands, refMask(nd, allowed))
	}
}

// TestNewDistOrdersUnsortedInput is the contract Greedy, SampleAt and
// lip.Sampler's top-k rest on for a policy-built Dist: whatever order the
// policy listed its candidates in, they come out in candidate order.
func TestNewDistOrdersUnsortedInput(t *testing.T) {
	d := NewDist(100, []TokenProb{{Token: 7, Prob: 0.1}, {Token: 3, Prob: 0.6}, {Token: 9, Prob: 0.3}, {Token: 4, Prob: 0.6}})
	var got []token.ID
	for _, c := range d.Candidates() {
		got = append(got, c.Token)
	}
	if want := []token.ID{3, 4, 9, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}
	if d.Greedy() != 3 {
		t.Fatalf("Greedy = %d, want the most probable token, 3", d.Greedy())
	}
	if tok := d.SampleAt(0.97); tok != 7 {
		t.Fatalf("SampleAt(0.97) = %d, want the least probable token, 7", tok)
	}
}

// fuzzProbs is what FuzzCandidateOrder builds raw candidates from: few
// enough values that ties are the rule, and the ones a comparison treats
// oddly.
var fuzzProbs = []float64{0, 0.25, 0.5, 1, 5e-324, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// FuzzCandidateOrder is the reference-order property over inputs nobody
// listed: order against the reference sort on raw candidates (two bytes
// each: a token out of 16, a probability out of fuzzProbs — NaN included,
// which order hands to the very sort.Slice call it replaced), and the four
// producers against theirs on a fuzzed context, TopK, EOS bias and
// temperature.
func FuzzCandidateOrder(f *testing.F) {
	f.Add(uint64(1), uint16(64), 0.05, 0.4, []byte{3, 1, 2, 1, 1, 3})
	f.Add(uint64(7), uint16(2000), 0.9, 0.05, []byte{1, 8, 2, 8, 3, 0, 3, 9})
	f.Add(uint64(512), uint16(1), 0.98, 50.0, []byte{})
	f.Add(uint64(9), uint16(8), 0.0, -1.0, []byte{5, 7, 4, 7, 3, 8, 2, 6})
	f.Fuzz(func(t *testing.T, h uint64, topK uint16, eosBias, temp float64, raw []byte) {
		c := make([]TokenProb, len(raw)/2)
		for i := range c {
			c[i] = TokenProb{Token: token.ID(raw[2*i] % 16), Prob: fuzzProbs[int(raw[2*i+1])%len(fuzzProbs)]}
		}
		want := referenceSort(slices.Clone(c))
		order(c)
		requireSameCands(t, 0, "order", c, want)

		// A Config's EOS bias is a probability mass. One so large that the
		// EOS mass overflows gives makeDist infinities and NaNs to order,
		// which no two sorts need agree on.
		if !(math.Abs(eosBias) < 1e300) {
			t.Skip()
		}
		cfg := Llama13B()
		cfg.TopK, cfg.EOSBias = 1+int(topK)%2048, eosBias
		temps := []float64{temp}
		if temp <= 0 || temp == 1 {
			temps = nil // one-hot and identity: nothing is reordered
		}
		requireReferenceOrder(t, h, cfg, temps)
	})
}
