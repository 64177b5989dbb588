package kvd_test

import (
	"reflect"
	"testing"

	"repro/internal/kvd"
	"repro/internal/kvfs"
	"repro/internal/simclock"
)

// offloadDecisions runs one tie-heavy reclaim pass — every candidate has
// identical recency, so the choice of victims rests
// entirely on the daemon's deterministic tie-breaks (registration seq) —
// and returns, per file in creation order, whether it was offloaded.
func offloadDecisions(t *testing.T) []bool {
	t.Helper()
	clk := simclock.New()
	fs := newFS(256) // 16 pages: reclaim down to 12
	d := newDaemon(t, clk, fs, kvd.Config{Policy: "lru"})
	var files []*kvfs.File
	for i := 0; i < 8; i++ {
		f := fs.CreateAnon("u")
		fill(t, f, 32) // 2 pages each: 16/16 pages used
		d.Track(f, i%3, nil)
		files = append(files, f)
	}
	if d.MaybeReclaim() == 0 {
		t.Fatal("expected a reclaim pass above high water")
	}
	out := make([]bool, len(files))
	for i, f := range files {
		gpu, _, _ := f.ResidentTokens()
		out[i] = gpu == 0
	}
	return out
}

// TestReclaimDecisionsDeterministic is the regression test for the
// sorted map scans in candidatesLocked: with all candidates tied, any
// map-iteration-order leak into the victim choice shows up as run-to-run
// variation. Every identically-configured run must offload exactly the
// same files.
func TestReclaimDecisionsDeterministic(t *testing.T) {
	first := offloadDecisions(t)
	offloaded := 0
	for _, o := range first {
		if o {
			offloaded++
		}
	}
	if offloaded == 0 || offloaded == len(first) {
		t.Fatalf("offload vector %v is not tie-sensitive (want a strict subset evicted)", first)
	}
	for run := 1; run < 20; run++ {
		if got := offloadDecisions(t); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d offloaded %v, first run offloaded %v", run, got, first)
		}
	}
}
