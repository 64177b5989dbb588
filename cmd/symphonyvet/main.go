// Command symphonyvet runs the kernel's static-analysis suite
// (internal/analysis) over the module: wallclock, maporder, globalrand,
// locksafepublish, errortaxonomy, and testonly. It is the repository's
// multichecker — CI runs it over ./... and fails on any diagnostic, so
// the determinism, virtual-clock, and locking invariants the simulator's
// results depend on, and the rule that the kernel exports only what the
// program uses, stay enforced mechanically rather than by review. The
// whole module is always loaded for testonly's use set; the patterns
// choose what is analyzed.
//
// Usage:
//
//	go run ./cmd/symphonyvet ./...
//	go run ./cmd/symphonyvet -list
//	go run ./cmd/symphonyvet ./internal/kvd ./internal/core
//
// Each finding prints on its own line, followed on stderr by a summary of
// the finding count; a clean tree prints nothing. Exit status is 0 when
// the tree is clean, 1 when any analyzer reports, and 2 on a driver error
// (load or type-check failure). Justified exceptions are annotated in the
// source as //lint:allow <rule> <reason>; they suppress the finding and
// are neither printed nor counted, so grep the source to list them.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	listFlag := flag.Bool("list", false, "print the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: symphonyvet [-list] [packages]\n\nruns the repro static-analysis suite (default pattern ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.All()
	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symphonyvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symphonyvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "symphonyvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
