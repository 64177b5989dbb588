package analysistest_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer is exercised on a fixture package holding positive cases
// (lines annotated // want "regexp"), negative cases (idiomatic code
// that must stay silent), and a //lint:allow exception. Path-scoped
// rules additionally run their fixtures under exempt import paths.

func TestWallClock(t *testing.T) {
	analysistest.Run(t, "testdata/wallclock", "repro/internal/fixture", analysis.WallClock)
}

func TestWallClockExemptPaths(t *testing.T) {
	// The simulated clock's implementation is the one sanctioned
	// wall-clock user; commands outside internal/ are out of scope.
	analysistest.Run(t, "testdata/wallclock_exempt", "repro/internal/simclock", analysis.WallClock)
	analysistest.Run(t, "testdata/wallclock_exempt", "repro/cmd/fixture", analysis.WallClock)
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata/maporder", "repro/internal/fixture", analysis.MapOrder)
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, "testdata/globalrand", "repro/internal/fixture", analysis.GlobalRand)
}

func TestGlobalRandOutsideInternalIsExempt(t *testing.T) {
	analysistest.Run(t, "testdata/wallclock_exempt", "repro/cmd/fixture", analysis.GlobalRand)
}

func TestLockSafePublish(t *testing.T) {
	analysistest.Run(t, "testdata/locksafepublish", "repro/internal/fixture", analysis.LockSafePublish)
}

func TestErrorTaxonomy(t *testing.T) {
	analysistest.Run(t, "testdata/errortaxonomy", "repro/internal/server", analysis.ErrorTaxonomy)
}

func TestErrorTaxonomyScopesToServer(t *testing.T) {
	analysistest.Run(t, "testdata/errortaxonomy_exempt", "repro/internal/fixture", analysis.ErrorTaxonomy)
}

func TestTestOnly(t *testing.T) {
	// bench, outside internal/ like benchmark/, is the only non-test user
	// of internal/lib; lib_test.go is never loaded.
	analysistest.Run(t, "testdata/testonly", "repro/internal/lib", analysis.TestOnly)
}
