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
//	symphony-bench -exp scaling -gpus 1,2,4,8 -dispatch cache-affinity
//
// The experiments and which of them honour -seed come from the
// experiments.Sweeps registry, and every one writes a BENCH_<exp>.json
// artifact; -list-exp prints the names one per line (and -list-dispatch
// the dispatcher names) for shell completion and scripts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/kvd"
	"repro/internal/sched"
)

func main() {
	all := experiments.SweepNames(nil)
	seeded := strings.Join(experiments.SweepNames(func(s experiments.Sweep) bool { return s.Seeded }), ", ")

	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(all, "|")+"|all)")
	quick := flag.Bool("quick", false, "use reduced grids for a fast pass")
	gpus := flag.String("gpus", "", "comma-separated GPU replica counts for -exp scaling (default 1,2,4,8)")
	dispatch := flag.String("dispatch", "",
		"replica dispatch policy for -exp scaling ("+strings.Join(sched.DispatcherNames(), "|")+")")
	kvPolicy := flag.String("kv-policy", "",
		"comma-separated KV eviction policies for -exp pressure ("+strings.Join(kvd.PolicyNames(), "|")+"; default all)")
	kvHighWater := flag.Float64("kv-high-water", 0,
		"GPU usage fraction that triggers KV reclaim for -exp pressure (default 0.90)")
	interconnectGbps := flag.Float64("interconnect-gbps", 0,
		"replica interconnect bandwidth in Gbit/s for -exp migrate and -exp chaos (0 = netsim default)")
	migrateThreshold := flag.Float64("migrate-threshold", 0,
		"home-overload factor for -exp migrate (0 = core default)")
	kvDiskGB := flag.Float64("kv-disk-gb", 0,
		"durable disk KV tier size in GiB for -exp restart and -exp chaos (0 = experiment default)")
	jsonDir := flag.String("json-dir", ".",
		"directory for the BENCH_<exp>.json artifact every experiment writes (empty disables)")
	seed := flag.Int64("seed", 0,
		"workload seed for the seeded experiments ("+seeded+"); 0 keeps each experiment's recorded baseline")
	prefixCache := flag.Bool("prefix-cache", false,
		"force the kernel radix prefix cache on in every -exp prefixcache cell (default: the sweep compares off and on)")
	prefixChunk := flag.Int("prefix-chunk", 0,
		"token chunk size for prefix-cache radix indexing in -exp prefixcache (0 = experiment default)")
	listExp := flag.Bool("list-exp", false, "print the valid -exp names, one per line, and exit")
	listDispatch := flag.Bool("list-dispatch", false, "print the valid -dispatch names, one per line, and exit")
	flag.Parse()

	// The listing flags print machine-consumable name lists (the same
	// lists the error paths below cite) and exit before any validation.
	if *listExp {
		fmt.Println(strings.Join(append(all, "all"), "\n"))
		os.Exit(0)
	}
	if *listDispatch {
		fmt.Println(strings.Join(sched.DispatcherNames(), "\n"))
		os.Exit(0)
	}

	// Reject bad enumerated flag values up front, each with the list of
	// valid names, instead of failing deep inside an experiment's setup.
	sweeps, ok := selectSweeps(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\nvalid experiments: %s, all\n", *exp, strings.Join(all, ", "))
		os.Exit(2)
	}
	if _, err := sched.NewDispatcher(*dispatch); err != nil {
		fmt.Fprintf(os.Stderr, "%v\nvalid dispatchers: %s\n", err, strings.Join(sched.DispatcherNames(), ", "))
		os.Exit(2)
	}
	for _, p := range splitList(*kvPolicy) {
		if _, err := kvd.NewPolicy(p); err != nil {
			fmt.Fprintf(os.Stderr, "%v\nvalid KV policies: %s\n", err, strings.Join(kvd.PolicyNames(), ", "))
			os.Exit(2)
		}
	}
	opts := experiments.Options{
		Quick:            *quick,
		Seed:             *seed,
		Dispatch:         *dispatch,
		KVPolicies:       splitList(*kvPolicy),
		KVHighWater:      *kvHighWater,
		InterconnectGbps: *interconnectGbps,
		MigrateThreshold: *migrateThreshold,
		KVDiskGB:         *kvDiskGB,
		PrefixCache:      *prefixCache,
		PrefixChunk:      *prefixChunk,
	}
	for _, s := range splitList(*gpus) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -gpus entry %q\n", s)
			os.Exit(2)
		}
		opts.GPUs = append(opts.GPUs, n)
	}

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

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
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
