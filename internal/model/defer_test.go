package model

import (
	"math"
	"slices"
	"testing"

	"repro/internal/token"
)

// deferConfigs are the model shapes the unbuilt-vs-built property is held
// on: the evaluation's target, its aligned draft (which answers with the
// target's distribution on the agreeing side of its coin and its own on the
// other), the unaligned draft, a vocabulary barely larger than TopK with a
// heavy EOS (the splitmix sequence repeats ids, and EOS often sorts first),
// and a model that never emits EOS.
func deferConfigs() []Config {
	small := Llama13B()
	small.Name, small.VocabSize, small.TopK, small.EOSBias = "vocab70-eos0.9", 70, 64, 0.9
	noEOS := Llama13B()
	noEOS.Name, noEOS.EOSBias = "no-eos", 0
	aligned := AlignedDraft(New(Llama13B()), 0.85)
	aligned.Name = "aligned-draft"
	return []Config{Llama13B(), aligned, DraftLlama1B(), small, noEOS}
}

// requireSameDist fails unless every reader of got answers exactly — no
// tolerance — as it does on want.
func requireSameDist(t *testing.T, h CtxHash, got, want Dist) {
	t.Helper()
	if got.Greedy() != want.Greedy() {
		t.Fatalf("h=%#x: Greedy %d, want %d", h, got.Greedy(), want.Greedy())
	}
	if got.VocabSize() != want.VocabSize() {
		t.Fatalf("h=%#x: VocabSize %d, want %d", h, got.VocabSize(), want.VocabSize())
	}
	requireSameCands(t, h, "Candidates", got.Candidates(), want.Candidates())
	cands := want.Candidates()
	probe := []token.ID{cands[len(cands)/2].Token, token.PAD} // a candidate, a tail token
	for _, tok := range probe {
		if g, w := got.ProbOf(tok), want.ProbOf(tok); g != w {
			t.Fatalf("h=%#x: ProbOf(%d) %v, want %v", h, tok, g, w)
		}
	}
	for _, u := range []float64{0, 0.1, 0.5, 0.9, 0.97, 0.999} {
		if g, w := got.SampleAt(u), want.SampleAt(u); g != w {
			t.Fatalf("h=%#x: SampleAt(%v) %d, want %d", h, u, g, w)
		}
	}
	if g, w := got.Entropy(), want.Entropy(); g != w {
		t.Fatalf("h=%#x: Entropy %v, want %v", h, g, w)
	}
	requireSameCands(t, h, "Temperature(0.4)", got.Temperature(0.4).Candidates(), want.Temperature(0.4).Candidates())
	allowed := []token.ID{cands[0].Token, cands[len(cands)-1].Token, token.PAD, token.UNK}
	requireSameCands(t, h, "Mask", got.Mask(allowed).Candidates(), want.Mask(allowed).Candidates())
}

func requireSameCands(t *testing.T, h CtxHash, what string, got, want []TokenProb) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("h=%#x: %s has %d candidates, want %d", h, what, len(got), len(want))
	}
	for i := range want { // by bits, so a NaN equals itself
		if got[i].Token != want[i].Token || math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			t.Fatalf("h=%#x: %s[%d] = %v, want %v", h, what, i, got[i], want[i])
		}
	}
}

// TestDeferEqualsNext holds Defer to its contract: an unbuilt distribution
// is indistinguishable from the eager one under every reader.
func TestDeferEqualsNext(t *testing.T) {
	contexts := 8_000
	if testing.Short() {
		contexts = 1_000
	}
	for _, cfg := range deferConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			m := New(cfg)
			eosFirst, agreed := 0, 0
			for i := 0; i < contexts; i++ {
				h := CtxHash(splitmix64(uint64(i)))
				want := m.Next(h)
				requireSameDist(t, h, m.Defer(h), want)
				if want.Greedy() == token.EOS {
					eosFirst++
				}
				if cfg.AlignTarget != nil && m.agrees(h, cfg.AlignProb) {
					agreed++
				}
			}
			// Both shapes of each config that has two were seen.
			if cfg.EOSBias >= 0.9 && (eosFirst == 0 || eosFirst == contexts) {
				t.Fatalf("EOS sorted first on %d of %d contexts; want both orderings", eosFirst, contexts)
			}
			if cfg.AlignTarget != nil && (agreed == 0 || agreed == contexts) {
				t.Fatalf("draft agreed on %d of %d contexts; want both sides of the coin", agreed, contexts)
			}
		})
	}
}

var sinkDist Dist

// BenchmarkNext is the eager build every executed position pays.
func BenchmarkNext(b *testing.B) {
	m := testModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDist = m.Next(CtxHash(splitmix64(uint64(i))))
	}
}

// BenchmarkDefer is what a position a prefix-cache hit attached pays, as
// long as nobody reads its distribution.
func BenchmarkDefer(b *testing.B) {
	m := testModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDist = m.Defer(CtxHash(splitmix64(uint64(i))))
	}
}

// BenchmarkTemperature is what lip.Sampler.Sample adds to Next for every
// token it draws at a temperature other than 0 and 1: a Pow per candidate,
// and an order that one pass confirms.
func BenchmarkTemperature(b *testing.B) {
	d := testModel().Next(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDist = d.Temperature(0.7)
	}
}

// BenchmarkMask is one constrained-decoding step of lip.Generate: sixteen
// allowed tokens, half of them candidates, listed by token id as a grammar
// would — not in candidate order, so this one pays for the sort.
func BenchmarkMask(b *testing.B) {
	d := testModel().Next(1)
	allowed := make([]token.ID, 0, 16)
	for i, c := range d.Candidates()[:8] {
		allowed = append(allowed, c.Token, token.ID(1000+i))
	}
	slices.Sort(allowed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDist = d.Mask(allowed)
	}
}
