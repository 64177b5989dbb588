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
// a model that never emits EOS, and the shapes where Greedy's closed form is
// at its edge or steps aside: an EOS bias of 1-TailMass (0.98), under which
// the candidates' mass falls as low as a 1,024th of 0.98 but stays positive;
// one of 1.0, under which the EOS mass reaches 1-TailMass on 20 of every
// 1,024 contexts, scale goes negative and the candidates reverse, so Greedy
// builds (EOS leads there either way, so only the branch count shows the
// fallback ran); one candidate; and 2,000 candidates, whose weights
// underflow into runs of equal zeros.
func deferConfigs() []Config {
	small := Llama13B()
	small.Name, small.VocabSize, small.TopK, small.EOSBias = "vocab70-eos0.9", 70, 64, 0.9
	noEOS := Llama13B()
	noEOS.Name, noEOS.EOSBias = "no-eos", 0
	aligned := AlignedDraft(New(Llama13B()), 0.85)
	aligned.Name = "aligned-draft"
	edge := Llama13B()
	edge.Name, edge.EOSBias = "eos0.98", 1-TailMass
	over := Llama13B()
	over.Name, over.EOSBias = "eos1.0", 1
	one := Llama13B()
	one.Name, one.TopK = "top1", 1
	wide := Llama13B()
	wide.Name, wide.TopK = "top2000", 2_000
	return []Config{Llama13B(), aligned, DraftLlama1B(), small, noEOS, edge, over, one, wide}
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
// is indistinguishable from the eager one under every reader, Greedy's
// closed form included. TopK 2000 gets a tenth of the contexts: every reader
// there rebuilds 2,000 candidates.
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
			n := contexts
			if cfg.TopK > 1_000 {
				n /= 10
			}
			eosFirst, agreed, fellBack, eosWon := 0, 0, 0, 0
			for i := 0; i < n; i++ {
				h := CtxHash(splitmix64(uint64(i)))
				want := m.Next(h)
				got := m.Defer(h)
				requireSameDist(t, h, got, want)
				if want.Greedy() == token.EOS {
					eosFirst++
				}
				if cfg.AlignTarget != nil && m.agrees(h, cfg.AlignProb) {
					agreed++
				}
				switch tok, ok := greedy(got.h, got.cfg); {
				case !ok:
					fellBack++
				case tok == token.EOS:
					eosWon++
				}
			}
			// Both shapes of each config that has two were seen, and each
			// branch of the closed form was reached where it can be.
			if cfg.EOSBias >= 0.9 && (eosFirst == 0 || eosFirst == n) {
				t.Fatalf("EOS sorted first on %d of %d contexts; want both orderings", eosFirst, n)
			}
			if cfg.AlignTarget != nil && (agreed == 0 || agreed == n) {
				t.Fatalf("draft agreed on %d of %d contexts; want both sides of the coin", agreed, n)
			}
			if cfg.EOSBias >= 0.9 && eosWon == 0 {
				t.Fatalf("the closed form put EOS first on none of %d contexts", n)
			}
			if cfg.EOSBias >= 1 && fellBack == 0 {
				t.Fatalf("Greedy built on none of %d contexts, want the fallback where scale <= 0", n)
			}
			if cfg.EOSBias < 1 && fellBack != 0 {
				t.Fatalf("Greedy built on %d of %d contexts, want the closed form throughout", fellBack, n)
			}
		})
	}
}

// FuzzGreedyDefer holds Greedy's closed form to the built distribution over
// shapes nobody listed: any context, an EOS bias in [0, 1.2], a TopK in
// [1, 4096] and a vocabulary at least TopK+8, on the model and on an aligned
// draft of it.
func FuzzGreedyDefer(f *testing.F) {
	f.Add(uint64(1), 0.05, uint16(63), uint16(32704))
	f.Add(uint64(7), 0.98, uint16(0), uint16(0))
	f.Add(uint64(512), 1.0, uint16(1999), uint16(100))
	f.Add(uint64(9), 1.2, uint16(4095), uint16(8))
	f.Fuzz(func(t *testing.T, h uint64, eosBias float64, topK, extra uint16) {
		if !(eosBias >= 0 && eosBias <= 1.2) {
			t.Skip()
		}
		cfg := Llama13B()
		cfg.EOSBias, cfg.TopK = eosBias, 1+int(topK)%4096
		cfg.VocabSize = cfg.TopK + 8 + int(extra)
		target := New(cfg)
		draft := AlignedDraft(target, 0.85)
		draft.EOSBias, draft.TopK, draft.VocabSize = cfg.EOSBias, cfg.TopK, cfg.VocabSize
		for _, m := range []*Model{target, New(draft)} {
			if got, want := m.Defer(CtxHash(h)).Greedy(), m.Next(CtxHash(h)).Greedy(); got != want {
				t.Fatalf("%s h=%#x: Defer(h).Greedy() = %d, Next(h).Greedy() = %d", m.Name(), h, got, want)
			}
		}
	})
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

var sinkToken token.ID

// BenchmarkGreedyDefer is what each position of the speculation bitmap, of
// lip.GenerateDecode's chain walk and of the baselines' server-fixed loop
// pays: an argmax read off an unbuilt distribution.
func BenchmarkGreedyDefer(b *testing.B) {
	m := testModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkToken = m.Defer(CtxHash(splitmix64(uint64(i)))).Greedy()
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
