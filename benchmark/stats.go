package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, in per mille
// so that the rule below is exact integer arithmetic.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least tailBeyond of n samples beyond it; with too few samples for any,
// the median.
func tailPercentile(n int) float64 {
	p := tailLadder[0]
	for _, q := range tailLadder {
		if n*(1000-q) >= tailBeyond*1000 {
			p = q
		}
	}
	return float64(p) / 1000
}

// quantile returns the p-quantile of sorted by linear interpolation
// between closest ranks, 0 for no samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a timing reported the way every timing here is: the median,
// the tail at the percentile the sample supports, and the sample count.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return summary{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, p), TailPct: p}
}

func median(samples []float64) float64 { return summarize(samples).P50 }

// sloLimits is the latency limit a request must meet on both counts.
type sloLimits struct {
	TTFTms float64
	TPOTms float64
}

// outcome is what the SLO logic needs to know about one request sent.
type outcome struct {
	OK     bool // completed with status done; refused, failed or timed out requests are not OK
	TTFTms float64
	TPOTms float64
}

func (o outcome) meets(l sloLimits) bool {
	return o.OK && o.TTFTms <= l.TTFTms && o.TPOTms <= l.TPOTms
}

// sloShare is the share of requests sent that meet both limits.
func sloShare(reqs []outcome, l sloLimits) float64 {
	if len(reqs) == 0 {
		return 0
	}
	met := 0
	for _, r := range reqs {
		if r.meets(l) {
			met++
		}
	}
	return float64(met) / float64(len(reqs))
}

// A rung passes when at least sloPassShare of the requests sent meet the
// limits and the backlog is not growing: in-flight requests at the last
// arrival are at most backlogLimit times those at the midpoint arrival.
const (
	sloPassShare = 0.99
	backlogLimit = 2.0
)

// rung is one fixed arrival rate of an open-loop workload.
type rung struct {
	Name     string
	Rate     float64 // requests per virtual second
	Share    float64 // sloShare of the measured requests
	Backlog  float64 // backlogRatio
	TTFTTail float64
}

func (r rung) passes() bool { return r.Share >= sloPassShare && r.Backlog <= backlogLimit }

// backlogRatio compares the requests in flight at the last arrivals with
// those at the midpoint arrivals. With Poisson arrivals and a few requests
// in flight a single arrival's count is mostly noise, so each side is the
// mean over a tenth of the arrivals, and a midpoint mean below one request
// counts as one.
func backlogRatio(inflightAtArrival []int) float64 {
	n := len(inflightAtArrival)
	w := n / 10
	if w == 0 {
		return 0
	}
	mean := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	mid := mean(inflightAtArrival[n/2-w/2 : n/2-w/2+w])
	if mid < 1 {
		mid = 1
	}
	return mean(inflightAtArrival[n-w:]) / mid
}

// sloRate is the highest rate among rungs that passes, 0 if none does.
func sloRate(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.passes() && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}
