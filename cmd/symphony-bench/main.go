// Command symphony-bench regenerates every figure and quantitative claim
// of "Serve Programs, Not Prompts" (HOTOS '25) from this repository's
// simulated reproduction. docs/EXPERIMENTS.md describes every experiment
// — the paper artifact it reproduces, the table it prints, its
// acceptance bar and the BENCH_<exp>.json schema — and docs/FLAGS.md
// every flag.
//
// Usage:
//
//	symphony-bench -exp fig3          # the paper's Figure 3 (both panels)
//	symphony-bench -exp all -quick    # everything, reduced grids
//	symphony-bench -exp pressure -seed 7
//
// The experiments and which of them honour -seed come from the
// experiments.Sweeps registry, and every one writes a BENCH_<exp>.json
// artifact; -list-exp prints the names one per line for shell completion
// and scripts. Each sweep's grid is its own: what a sweep compares
// (dispatchers, KV policies, cache off and on) is fixed in its config.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	all := experiments.SweepNames(nil)
	seeded := strings.Join(experiments.SweepNames(func(s experiments.Sweep) bool { return s.Seeded }), ", ")

	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(all, "|")+"|all)")
	quick := flag.Bool("quick", false, "use reduced grids for a fast pass")
	jsonDir := flag.String("json-dir", ".",
		"directory for the BENCH_<exp>.json artifact every experiment writes (empty disables)")
	seed := flag.Int64("seed", 0,
		"workload seed for the seeded experiments ("+seeded+"); 0 keeps each experiment's recorded baseline")
	listExp := flag.Bool("list-exp", false, "print the valid -exp names, one per line, and exit")
	flag.Parse()

	// -list-exp prints the machine-consumable name list the rejection
	// below cites, and exits before any validation.
	if *listExp {
		fmt.Println(strings.Join(append(all, "all"), "\n"))
		os.Exit(0)
	}
	sweeps, ok := selectSweeps(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\nvalid experiments: %s, all\n", *exp, strings.Join(all, ", "))
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}

	start := time.Now()
	for _, s := range sweeps {
		cfg, points, tables := s.Run(opts)
		for _, t := range tables {
			fmt.Println(t.String())
		}
		writeBench(*jsonDir, s.Name, cfg, points)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// selectSweeps resolves an -exp value to the registered sweeps it runs —
// one by name, or every one for "all"; ok is false for a name the
// registry does not have. Validation and dispatch both go through it, so
// a name cannot be accepted and then run nothing.
func selectSweeps(exp string) (sweeps []experiments.Sweep, ok bool) {
	if exp == "all" {
		return experiments.Sweeps, true
	}
	i := slices.IndexFunc(experiments.Sweeps, func(s experiments.Sweep) bool { return s.Name == exp })
	if i < 0 {
		return nil, false
	}
	return experiments.Sweeps[i : i+1], true
}

// writeBench persists one experiment's machine-readable artifact,
// creating the target directory if needed.
func writeBench(dir, experiment string, cfg, points any) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	if err := experiments.WriteBenchJSON(path, experiment, cfg, points); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
