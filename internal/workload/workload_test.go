package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestParetoSkewOrdering(t *testing.T) {
	// Smaller index must concentrate more mass on the top topics.
	skewed := NewPareto(100, 0.3)
	mild := NewPareto(100, 2.0)
	// cdf[19] is the popularity mass of the 20 most popular topics.
	if skewed.cdf[19] <= mild.cdf[19] {
		t.Fatalf("top-20 mass: skewed %.3f <= mild %.3f", skewed.cdf[19], mild.cdf[19])
	}
	if skewed.cdf[19] < 0.9 {
		t.Fatalf("index 0.3 top-20 mass = %.3f, want >0.9", skewed.cdf[19])
	}
}

// TestParetoTopMassBounds checks the CDF Sample inverts: cdf[k-1] is the
// popularity mass of the k most popular topics, positive from the first
// topic on, never decreasing, and exactly 1 over all of them.
func TestParetoTopMassBounds(t *testing.T) {
	p := NewPareto(50, 1)
	if len(p.cdf) != 50 {
		t.Fatalf("cdf over %d topics, want 50", len(p.cdf))
	}
	if p.cdf[0] <= 0 {
		t.Fatal("top topic has no mass")
	}
	if p.cdf[49] != 1 {
		t.Fatalf("full mass = %v, want 1", p.cdf[49])
	}
	for k := 1; k < 50; k++ {
		if p.cdf[k] < p.cdf[k-1] {
			t.Fatalf("top-k mass not monotone at %d", k+1)
		}
	}
}

func TestParetoSampleMatchesMass(t *testing.T) {
	p := NewPareto(100, 0.5)
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	top20 := 0
	for i := 0; i < n; i++ {
		if p.Sample(rng) < 20 {
			top20++
		}
	}
	got := float64(top20) / n
	want := p.cdf[19]
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical top-20 rate %.3f vs analytic %.3f", got, want)
	}
}

func TestParetoSampleRange(t *testing.T) {
	p := NewPareto(10, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k := p.Sample(rng)
		if k < 0 || k >= 10 {
			t.Fatalf("sample out of range: %d", k)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(8)
	rng := rand.New(rand.NewSource(2))
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.NextGap(rng)
	}
	mean := total / n
	want := time.Second / 8
	ratio := float64(mean) / float64(want)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("mean gap %v, want ≈%v", mean, want)
	}
}

func TestCorpusDeterministicAndSized(t *testing.T) {
	a := NewCorpus(5, 3000)
	b := NewCorpus(5, 3000)
	for i := 0; i < 5; i++ {
		if a.Doc(i) != b.Doc(i) {
			t.Fatalf("doc %d not deterministic", i)
		}
	}
	if a.Doc(0) == a.Doc(1) {
		t.Fatal("documents identical")
	}
	if len(a.docs) != 5 {
		t.Fatalf("len = %d", len(a.docs))
	}
}

func TestQuestionUnique(t *testing.T) {
	if Question(1, 2) == Question(1, 3) || Question(1, 2) == Question(2, 2) {
		t.Fatal("questions collide")
	}
}

func TestRAGTraceShape(t *testing.T) {
	tr := RAGTrace(200, 4, 0.5, 100, 32, 42)
	if len(tr) != 200 {
		t.Fatalf("len = %d", len(tr))
	}
	var prev time.Duration
	for i, r := range tr {
		if r.Arrive < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = r.Arrive
		if r.Topic < 0 || r.Topic >= 100 {
			t.Fatalf("topic out of range: %d", r.Topic)
		}
		if r.MaxGen != 32 {
			t.Fatalf("bad request %+v", r)
		}
	}
	// 200 requests at 4/s should take ~50s.
	if tr[199].Arrive < 30*time.Second || tr[199].Arrive > 80*time.Second {
		t.Fatalf("trace span = %v", tr[199].Arrive)
	}
	// Determinism.
	tr2 := RAGTrace(200, 4, 0.5, 100, 32, 42)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestChatTrace(t *testing.T) {
	c := ChatTrace(8, 512, 64, 1)
	if len(c) != 8 {
		t.Fatalf("rounds = %d", len(c))
	}
	for i, turn := range c {
		if turn.User == "" || turn.MaxGen != 64 {
			t.Fatalf("bad turn %d: %+v", i, turn)
		}
	}
	if c[0].User == c[1].User {
		t.Fatal("turns identical")
	}
}

func TestEditorTraceMix(t *testing.T) {
	tr := EditorTrace(500, 3)
	appends, deletes := 0, 0
	for _, k := range tr {
		switch {
		case k.Append != "" && k.Delete == 0:
			appends++
		case k.Delete > 0 && k.Append == "":
			deletes++
		default:
			t.Fatalf("ambiguous keystroke %+v", k)
		}
	}
	if appends == 0 || deletes == 0 {
		t.Fatalf("mix degenerate: %d appends, %d deletes", appends, deletes)
	}
	if deletes > appends {
		t.Fatal("deletes dominate")
	}
}
