package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Add(10 * time.Millisecond)
	h.Add(20 * time.Millisecond)
	h.Add(30 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var all []time.Duration
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Intn(1000)+1) * time.Millisecond
		all = append(all, d)
		h.Add(d)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		// Exact quantile by sorting.
		sorted := append([]time.Duration(nil), all...)
		sortDurations(sorted)
		exact := sorted[int(q*float64(len(sorted)-1))]
		ratio := float64(got) / float64(exact)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("q%.2f: got %v exact %v (ratio %.3f)", q, got, exact, ratio)
		}
	}
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func TestHistogramQuantileBoundsProperty(t *testing.T) {
	f := func(samples []uint32, q float64) bool {
		if len(samples) == 0 {
			return true
		}
		q = math.Abs(q)
		q -= math.Floor(q)
		h := NewHistogram()
		for _, s := range samples {
			h.Add(time.Duration(s%10_000_000) * time.Microsecond)
		}
		v := h.Quantile(q)
		return v >= h.Min() && v <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5 * time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative duration not clamped to 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Add(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if math.Abs(w.Sum()-40) > 1e-12 {
		t.Fatalf("sum = %v", w.Sum())
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		var sum float64
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		if len(xs) > 0 {
			ok = math.Abs(w.Mean()-sum/float64(len(xs))) < 1e-6*(1+math.Abs(sum))
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Headers: []string{"sys", "lat", "xput"}}
	tab.AddRow("symphony", 12500*time.Microsecond, 3.14159)
	tab.AddRow("vllm", time.Second, 1.0)
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "symphony") {
		t.Fatalf("table missing content:\n%s", s)
	}
	if !strings.Contains(s, "3.142") {
		t.Fatalf("float not formatted:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
	// Columns should be aligned: every row equally long or longer headers.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header/separator misaligned:\n%s", s)
	}
}
