// Package analysis is the kernel's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver shape (the toolchain bundled with this repository carries no
// module cache, so the real framework cannot be vendored) plus the six
// analyzers that make the simulator's correctness rules mechanically
// checkable:
//
//   - wallclock:       virtual time only — no wall-clock reads inside
//     internal/ outside internal/simclock;
//   - maporder:        no ordering-sensitive decisions driven by Go map
//     iteration order;
//   - globalrand:      no package-level math/rand — randomness must flow
//     from an injected, seeded *rand.Rand;
//   - locksafepublish: no callbacks, event publishes, channel sends, or
//     blocking waits while a sync.Mutex/RWMutex acquired in the same
//     function is still held;
//   - errortaxonomy:   HTTP error responses in internal/server go through
//     the typed taxonomy writer, never raw http.Error/WriteHeader;
//   - testonly:        no exported internal/ name that only tests use, and
//     no *Config/*Options field that only tests set.
//
// Every scale and latency claim the repository makes rests on the
// simulation being deterministic and race-free; `go vet` and the race
// detector cannot see these invariants, so cmd/symphonyvet runs this
// suite over the whole tree in CI. A justified exception is annotated in
// the code as `//lint:allow <rule> <reason>` (see allow.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so analyzers written here can
// be ported to the real framework (and vice versa) mechanically.
type Analyzer struct {
	// Name is the rule name, as used in diagnostics and //lint:allow
	// annotations.
	Name string
	// Doc is the one-paragraph description printed by symphonyvet -list.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions for every file of the package.
	Fset *token.FileSet
	// Path is the package import path (e.g. repro/internal/kvd).
	Path string
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg and TypesInfo are the type-checker's output for the package.
	Pkg       *types.Package
	TypesInfo *types.Info

	uses  *moduleUses
	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed to a rule.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in presentation order.
func All() []*Analyzer {
	return []*Analyzer{
		WallClock,
		MapOrder,
		GlobalRand,
		LockSafePublish,
		ErrorTaxonomy,
		TestOnly,
	}
}

// RunAnalyzers builds the module-wide use set from every package once,
// applies every analyzer to every package not marked UsesOnly, honors
// //lint:allow annotations, and returns the surviving diagnostics sorted
// by position. Malformed or unknown-rule allow annotations are themselves
// diagnostics, so the exception list stays auditable.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	uses := newModuleUses(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.UsesOnly {
			continue
		}
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Path:      pkg.Path,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				uses:      uses,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		kept, allowErrs := filterAllowed(pkg.Fset, pkg.Files, diags, known)
		out = append(out, kept...)
		out = append(out, allowErrs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out, nil
}
