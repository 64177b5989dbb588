package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/token"
)

func testModel() *Model { return New(Llama13B()) }

func TestDeterminism(t *testing.T) {
	m := testModel()
	h := HashContext(0, []token.ID{10, 11, 12}, 0)
	a, b := m.Next(h), m.Next(h)
	ca, cb := a.Candidates(), b.Candidates()
	if len(ca) != len(cb) {
		t.Fatal("same context, different candidate counts")
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestContextSensitivity(t *testing.T) {
	m := testModel()
	h1 := HashContext(0, []token.ID{10, 11, 12}, 0)
	h2 := HashContext(0, []token.ID{10, 11, 13}, 0)
	if m.Next(h1).Greedy() == m.Next(h2).Greedy() && h1 == h2 {
		t.Fatal("hash collision on trivially different contexts")
	}
	if h1 == h2 {
		t.Fatal("different contexts hash equal")
	}
}

func TestPositionSensitivity(t *testing.T) {
	toks := []token.ID{5, 6}
	if HashContext(0, toks, 0) == HashContext(0, toks, 1) {
		t.Fatal("hash ignores position")
	}
}

func TestHashIncrementalEqualsBulk(t *testing.T) {
	f := func(toks []uint16, start uint8) bool {
		ids := make([]token.ID, len(toks))
		for i, v := range toks {
			ids[i] = token.ID(v)
		}
		h := CtxHash(0)
		for i, id := range ids {
			h = h.Extend(id, int(start)+i)
		}
		return h == HashContext(0, ids, int(start))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistNormalized(t *testing.T) {
	m := testModel()
	for i := 0; i < 50; i++ {
		d := m.Next(CtxHash(uint64(i * 7919)))
		var sum float64
		prev := math.Inf(1)
		for _, c := range d.Candidates() {
			if c.Prob < 0 || c.Prob > 1 {
				t.Fatalf("prob out of range: %v", c)
			}
			if c.Prob > prev+1e-12 {
				t.Fatal("candidates not sorted by descending prob")
			}
			prev = c.Prob
			sum += c.Prob
			if c.Token != token.EOS && token.IsSpecial(c.Token) {
				t.Fatalf("special token %d in candidates", c.Token)
			}
		}
		if math.Abs(sum-(1-TailMass)) > 1e-9 {
			t.Fatalf("candidate mass = %v, want %v", sum, 1-TailMass)
		}
	}
}

func TestDistNoDuplicateCandidates(t *testing.T) {
	m := testModel()
	for i := 0; i < 50; i++ {
		d := m.Next(CtxHash(uint64(i)))
		seen := map[token.ID]bool{}
		for _, c := range d.Candidates() {
			if seen[c.Token] {
				t.Fatalf("duplicate candidate %d", c.Token)
			}
			seen[c.Token] = true
		}
	}
}

func TestGreedyIsArgmax(t *testing.T) {
	m := testModel()
	d := m.Next(42)
	g := d.Greedy()
	for _, c := range d.Candidates() {
		if c.Prob > d.ProbOf(g) {
			t.Fatalf("greedy %d (p=%v) not argmax: %d has %v", g, d.ProbOf(g), c.Token, c.Prob)
		}
	}
}

func TestProbOfTailPositive(t *testing.T) {
	m := testModel()
	d := m.Next(7)
	cands := map[token.ID]bool{}
	for _, c := range d.Candidates() {
		cands[c.Token] = true
	}
	var tok token.ID
	for tok = 100; cands[tok]; tok++ {
	}
	p := d.ProbOf(tok)
	if p <= 0 || p > TailMass {
		t.Fatalf("tail prob = %v", p)
	}
}

// TestSampleAtCoversCDF checks the candidate CDF a sampler inverts:
// it starts at the greedy token, never decreases, and reaches 1-TailMass
// at the least probable candidate, so every u in [0, 1-TailMass) lands on
// a candidate and only the tail is left to map to the last one.
func TestSampleAtCoversCDF(t *testing.T) {
	m := testModel()
	d := m.Next(99)
	cands := d.Candidates()
	if len(cands) == 0 || cands[0].Token != d.Greedy() {
		t.Fatal("CDF does not start at the greedy token")
	}
	var acc float64
	for i, c := range cands {
		if c.Prob <= 0 {
			t.Fatalf("candidate %d has probability %v", i, c.Prob)
		}
		if i > 0 && c.Prob > cands[i-1].Prob {
			t.Fatalf("candidate %d more probable than %d", i, i-1)
		}
		acc += c.Prob
	}
	if math.Abs(acc-(1-TailMass)) > 1e-9 {
		t.Fatalf("candidate mass = %v, want %v", acc, 1-TailMass)
	}
}

func TestMaskRestrictsAndRenormalizes(t *testing.T) {
	m := testModel()
	d := m.Next(1234)
	allowed := []token.ID{d.Candidates()[2].Token, 31000, 31001}
	md := d.Mask(allowed)
	var sum float64
	ok := map[token.ID]bool{}
	for _, a := range allowed {
		ok[a] = true
	}
	for _, c := range md.Candidates() {
		if !ok[c.Token] {
			t.Fatalf("masked dist contains disallowed token %d", c.Token)
		}
		sum += c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("masked mass = %v", sum)
	}
	// The explicit candidate should dominate the two tail tokens.
	if md.Greedy() != allowed[0] {
		t.Fatalf("masked greedy = %d, want %d", md.Greedy(), allowed[0])
	}
}

func TestMaskEmpty(t *testing.T) {
	m := testModel()
	d := m.Next(5)
	md := d.Mask(nil)
	if len(md.Candidates()) != 0 {
		t.Fatal("mask of empty set has candidates")
	}
}

func TestTemperatureExtremes(t *testing.T) {
	m := testModel()
	d := m.Next(77)
	greedy := d.Temperature(0)
	if len(greedy.Candidates()) != 1 || greedy.Greedy() != d.Greedy() {
		t.Fatal("temp=0 is not one-hot greedy")
	}
	same := d.Temperature(1)
	if same.Greedy() != d.Greedy() {
		t.Fatal("temp=1 changed the distribution")
	}
	hot := d.Temperature(100)
	if top, hotTop := d.Candidates()[0].Prob, hot.Candidates()[0].Prob; hotTop > top {
		t.Fatalf("high temperature sharpened the top candidate: %v -> %v", top, hotTop)
	}
	var sum float64
	for _, c := range hot.Candidates() {
		sum += c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("temperature mass = %v", sum)
	}
}

func TestDraftAgreement(t *testing.T) {
	target := testModel()
	draft := New(AlignedDraft(target, 0.8))
	agree := 0
	const n = 500
	for i := 0; i < n; i++ {
		h := CtxHash(uint64(i * 104729))
		if draft.Next(h).Greedy() == target.Next(h).Greedy() {
			agree++
		}
	}
	frac := float64(agree) / n
	if frac < 0.7 || frac > 0.95 {
		t.Fatalf("agreement fraction = %v, want ≈0.8", frac)
	}
	// Zero agreement should almost never match.
	agree = 0
	draft = New(AlignedDraft(target, 0))
	for i := 0; i < n; i++ {
		h := CtxHash(uint64(i * 104729))
		if draft.Next(h).Greedy() == target.Next(h).Greedy() {
			agree++
		}
	}
	if float64(agree)/n > 0.1 {
		t.Fatalf("agreement=0 still matched %d/%d", agree, n)
	}
}

func TestCostModelShape(t *testing.T) {
	c := A100Llama13B()
	single := c.StepTime([]BatchCall{{NewTokens: 1}})
	batch16 := c.StepTime(makeCalls(16, 1))
	if batch16 >= 16*single {
		t.Fatalf("batching gives no amortization: 1=%v 16=%v", single, batch16)
	}
	// Single-stream decode should land in a plausible 13B band (20-60 tok/s).
	tps := float64(time.Second) / float64(single)
	if tps < 20 || tps > 60 {
		t.Fatalf("single-stream decode = %.1f tok/s, want 20-60", tps)
	}
	// Prefill of 3000 tokens should take ~1s, far more than one decode.
	prefill := c.StepTime([]BatchCall{{NewTokens: 3000}})
	if prefill < 500*time.Millisecond || prefill > 2*time.Second {
		t.Fatalf("3000-token prefill = %v", prefill)
	}
}

func TestTransferTime(t *testing.T) {
	c := A100Llama13B()
	if c.TransferTime(0) != 0 {
		t.Fatal("zero tokens, nonzero transfer")
	}
	d := c.TransferTime(3000)
	// 3000 tokens · 800KB = 2.4GB at 20GB/s ≈ 120ms.
	if d < 50*time.Millisecond || d > 500*time.Millisecond {
		t.Fatalf("transfer of 3000 tokens = %v", d)
	}
	if c.KVBytes(2) != 2*c.KVBytesPerToken {
		t.Fatal("KVBytes arithmetic wrong")
	}
}

// TestApproxBytesMatchesPaperClaim: the paper puts a distribution over a
// 100K vocabulary at fp16 at ~200 KB. A Dist carries its model's
// vocabulary through every rewrite a sampler or a program applies, so
// vocab x fp16 is the size of what it stands for.
func TestApproxBytesMatchesPaperClaim(t *testing.T) {
	cfg := Llama13B()
	cfg.VocabSize = 100_000
	m := New(cfg)
	d := m.Next(1)
	for name, r := range map[string]Dist{
		"next":        d,
		"defer":       m.Defer(1),
		"mask":        d.Mask([]token.ID{d.Greedy()}),
		"temperature": d.Temperature(2),
		"new":         NewDist(d.VocabSize(), d.Candidates()),
	} {
		if b := 2 * r.VocabSize(); b != 200_000 {
			t.Errorf("%s: vocab x fp16 = %d bytes, want 200000", name, b)
		}
	}
}

func TestNewDistPreservesContract(t *testing.T) {
	cands := []TokenProb{{Token: 10, Prob: 0.6}, {Token: 11, Prob: 0.4}}
	d := NewDist(32768, cands)
	var sum float64
	for _, c := range d.Candidates() {
		sum += c.Prob
	}
	if math.Abs(sum-(1-TailMass)) > 1e-9 {
		t.Fatalf("candidate mass = %v, want %v", sum, 1-TailMass)
	}
	if d.Greedy() != 10 {
		t.Fatalf("greedy = %d", d.Greedy())
	}
	// Non-candidates keep a positive queryable tail, so Mask-based
	// constraints still compose with rewritten distributions.
	if p := d.ProbOf(999); p <= 0 {
		t.Fatalf("tail prob = %v", p)
	}
	m := d.Mask([]token.ID{999, 10})
	if m.Greedy() != 10 || len(m.Candidates()) != 2 {
		t.Fatalf("mask over rewritten dist broken: %+v", m.Candidates())
	}
}

func TestNewDistEmptyAndZeroMass(t *testing.T) {
	d := NewDist(100, nil)
	if len(d.Candidates()) != 0 {
		t.Fatal("empty NewDist has candidates")
	}
	d = NewDist(100, []TokenProb{{Token: 5, Prob: 0}})
	if len(d.Candidates()) != 0 {
		t.Fatal("zero-mass NewDist has candidates")
	}
}

func makeCalls(n, toks int) []BatchCall {
	out := make([]BatchCall, n)
	for i := range out {
		out[i] = BatchCall{NewTokens: toks}
	}
	return out
}
