package main

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"
)

// The reference computation. This benchmark runs on a few cores of a shared
// host, and each core flips between two speeds a factor of 1.5 apart, for
// anything between a few milliseconds and minutes: the same binary on the
// same seed completed 47 and 70 requests per wall second within a quarter of
// an hour, and its CPU time moved with its wall time. No median over one run
// survives that, so the gated host-clock metrics are not read in wall seconds
// but in reference seconds: while a phase is timed, a small fixed computation
// that belongs to the benchmark and not to the system is timed every refGap
// on the same CPU, and the phase's wall time is scaled by how fast that
// computation ran. One reference second is the time refNominal units take; on
// the box the constant was frozen on that is about one wall second. A change
// to the system moves the system's time and leaves the reference alone; a
// change of the machine's mood moves both.

const (
	// refNominal is the reference speed, in units per second, that one
	// reference second is defined by.
	refNominal = 80000.0
	// refSlice is how long one timing of the reference runs, refGap how long
	// a measured phase runs between two timings: the machine's speed flips
	// within tens of milliseconds, so the timings are short and frequent.
	refSlice = time.Millisecond
	refGap   = 20 * time.Millisecond
	// refVirtualGap is how often, in virtual time, a kernel workload's
	// bystander actor wakes up to see whether refGap has passed.
	refVirtualGap = 200 * time.Millisecond
	// refSetupSlice is the length of the two timings around one set-up.
	refSetupSlice = 20 * time.Millisecond
)

type refCand struct {
	id uint32
	w  float64
}

// refWork is the state the reference computation works on. A unit draws 64
// weighted ids into a map, reweighs and sorts them: integer mixing, hashing,
// floating point and branchy comparisons, free of allocation.
type refWork struct {
	rng     uint64
	weights map[uint32]float64
	cands   []refCand
	sink    float64
}

func newRefWork() *refWork {
	return &refWork{rng: 1, weights: make(map[uint32]float64, 64), cands: make([]refCand, 0, 64)}
}

func (w *refWork) next() uint64 {
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (w *refWork) unit() {
	clear(w.weights)
	w.cands = w.cands[:0]
	for i := 0; i < 64; i++ {
		id := uint32(w.next() % 4096)
		w.weights[id] += math.Exp(-float64(w.next()%1000) / 250)
	}
	for id, x := range w.weights {
		w.cands = append(w.cands, refCand{id, math.Pow(x, 1.3)})
	}
	slices.SortFunc(w.cands, func(a, b refCand) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	w.sink += w.cands[0].w
}

// refTiming is one or more timings of the reference: the units run and the
// wall time they took.
type refTiming struct {
	units int
	took  time.Duration
}

func (t refTiming) plus(o refTiming) refTiming { return refTiming{t.units + o.units, t.took + o.took} }

// speed is units per second.
func (t refTiming) speed() float64 {
	if t.took <= 0 {
		return 0
	}
	return float64(t.units) / t.took.Seconds()
}

// factor is the speed as a share of refNominal: wall seconds times factor
// are reference seconds.
func (t refTiming) factor() float64 { return t.speed() / refNominal }

// time runs units for about d.
func (w *refWork) time(d time.Duration) refTiming {
	t0 := time.Now()
	for n := 16; ; n += 16 {
		for i := 0; i < 16; i++ {
			w.unit()
		}
		if took := time.Since(t0); took >= d {
			return refTiming{n, took}
		}
	}
}

// refMeter times the reference computation alongside one timed phase and
// adds the timings up, so that a timing the machine stretched weighs as much
// as the wall time it covered.
type refMeter struct {
	mu    sync.Mutex
	work  *refWork
	last  time.Time
	total refTiming
}

func newRefMeter() *refMeter { return &refMeter{work: newRefWork()} }

// sample times the reference once, for about d.
func (m *refMeter) sample(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = m.total.plus(m.work.time(d))
	m.last = time.Now()
}

// tick times the reference if refGap has passed since it last was.
func (m *refMeter) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.last) >= refGap {
		m.total = m.total.plus(m.work.time(refSlice))
		m.last = time.Now()
	}
}

// timing is the sum of the timings so far.
func (m *refMeter) timing() refTiming {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// refSeconds turns the wall time of a phase that the meter's timings ran
// inside of into reference seconds: the timings' own time is taken out and
// the rest scaled by the reference speed they saw.
func (m *refMeter) refSeconds(wall time.Duration) float64 {
	t := m.timing()
	return (wall - t.took).Seconds() * t.factor()
}
