// Package metrics provides the streaming statistics and table rendering
// used by the experiment harness: log-bucketed latency histograms with
// quantile queries, Welford mean/variance accumulators, and rate counters.
// Everything operates on virtual time from simclock, so results are
// deterministic.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram records durations in logarithmic buckets (5% resolution) from
// 1µs to ~3h. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int]int64
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64)}
}

const (
	histBase = 1.05
	histUnit = time.Microsecond
)

func bucketOf(d time.Duration) int {
	if d < histUnit {
		return 0
	}
	return int(math.Log(float64(d)/float64(histUnit)) / math.Log(histBase))
}

func bucketLow(b int) time.Duration {
	return time.Duration(float64(histUnit) * math.Pow(histBase, float64(b)))
}

// Add records one observation.
func (h *Histogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the exact mean of all observations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration { h.mu.Lock(); defer h.mu.Unlock(); return h.max }

// CountAbove reports how many observations exceeded d, accurate to one
// bucket (≈5%): an observation counts when its whole bucket lies above d.
func (h *Histogram) CountAbove(d time.Duration) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for b, c := range h.buckets {
		if bucketLow(b) > d {
			n += c
		}
	}
	return n
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1), accurate to
// one bucket (≈5%). It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for _, k := range keys {
		seen += h.buckets[k]
		if seen >= target {
			v := bucketLow(k)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Welford accumulates the running mean (Welford's update) and total of
// float64 samples.
type Welford struct {
	mu    sync.Mutex
	n     int64
	mean  float64
	total float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.total += x
}

// N reports the sample count.
func (w *Welford) N() int64 { w.mu.Lock(); defer w.mu.Unlock(); return w.n }

// Mean reports the running mean.
func (w *Welford) Mean() float64 { w.mu.Lock(); defer w.mu.Unlock(); return w.mean }

// Sum reports the running total.
func (w *Welford) Sum() float64 { w.mu.Lock(); defer w.mu.Unlock(); return w.total }

// Counter is a concurrent monotonic counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

// Table renders aligned experiment output, the textual equivalent of the
// paper's figures.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out string
	if t.Title != "" {
		out += "== " + t.Title + " ==\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += fmt.Sprintf("%-*s", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	out += line(sep)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}
