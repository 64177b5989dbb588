// Package experiments contains the drivers that regenerate every figure
// and quantitative claim of the paper (docs/EXPERIMENTS.md is the index).
// Sweeps registers each one; cmd/symphony-bench, the testing.B benchmarks
// in the repository root, the oracle test and the docs check all iterate
// that registry.
package experiments

import "math/rand"

// newRand returns a seeded deterministic source for experiment drivers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// seedBase maps an experiment config's Seed to the offset applied to its
// deterministic token/prompt seed streams, so different seeds draw
// disjoint synthetic workloads. Seed 0 (zero-value config) and Seed 1
// both mean the recorded baseline: offset zero, so BENCH_*.json
// artifacts stay byte-identical to the trajectories already checked in.
func seedBase(seed int64) int {
	if seed == 0 {
		seed = 1
	}
	return int(seed-1) * 10_000_000
}

// SystemSymphony, SystemVLLM, SystemTGI name the three serving systems
// under comparison.
const (
	SystemSymphony = "symphony"
	SystemVLLM     = "vllm-sim"
	SystemTGI      = "tgi-sim"
)

// AllSystems lists the systems in presentation order.
var AllSystems = []string{SystemSymphony, SystemVLLM, SystemTGI}
