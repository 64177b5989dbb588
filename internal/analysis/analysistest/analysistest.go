// Package analysistest runs one internal/analysis analyzer over a
// fixture directory and checks its diagnostics against // want
// annotations, mirroring golang.org/x/tools/go/analysis/analysistest
// (which the offline toolchain cannot vendor; see internal/analysis).
//
// A fixture is a directory of Go files forming one package, beside any
// fixture packages in its subdirectories. A line that must be reported
// carries a trailing comment
//
//	// want "regexp"
//
// whose pattern must match the diagnostic message produced at that line;
// several want comments on one line each need a matching diagnostic.
// Lines without a want comment must stay silent. Because analyzers key
// exemptions off the import path (internal/simclock, internal/server,
// non-internal commands), the caller supplies the pretend path the
// fixture is checked under — the same files can be run once as
// "repro/internal/fixture" expecting findings and once as
// "repro/internal/simclock" expecting silence.
package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe matches one expectation inside a comment. The pattern is a
// double-quoted Go string so fixtures can escape quotes.
var wantRe = regexp.MustCompile(`want ("(?:[^"\\]|\\.)*")`)

// expectation is one // want entry, positioned at the line it annotates.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture directory as one package under the given import
// path, then each directory below it that holds Go files, in lexical
// order, as a package at "repro/" plus its path below dir; such a package
// may import the fixture and the packages loaded before it. It skips
// _test.go files, as the loader does, runs exactly one analyzer (allow
// filtering included) over them all, and reports every mismatch between
// diagnostics and // want annotations as a test error.
//
//lint:allow testonly a test harness: the analyzer suite's fixture tests are its callers
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	fixtures := []fixture{{pkgPath, dir}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		fixtures = append(fixtures, fixture{"repro/" + filepath.ToSlash(rel), path})
		return err
	})
	if err != nil {
		t.Fatalf("walking fixture %s: %v", dir, err)
	}
	pkgs, err := loadFixtures(fixtures)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}

	for _, d := range diags {
		if !claimWant(wants, d) {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", posOf(d), d.Rule, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}

// claimWant marks the first unclaimed expectation matching d.
func claimWant(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == filepath.Base(d.Pos.Filename) &&
			w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func posOf(d analysis.Diagnostic) string {
	return filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
}

// collectWants parses every // want annotation in the fixture.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					lit, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("bad want literal %s: %v", m[1], err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", lit, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &expectation{
						file:    filepath.Base(pos.Filename),
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return wants
}

// fixture is one fixture package: its import path and directory.
type fixture struct{ path, dir string }

// loadFixtures parses each fixture's non-test files and type-checks the
// packages in order. Standard-library imports are resolved from the build
// cache's export data via analysis.ExportImporter.
func loadFixtures(fixtures []fixture) ([]*analysis.Package, error) {
	fset := token.NewFileSet()
	files := make([][]*ast.File, len(fixtures))
	local, imports := map[string]bool{}, map[string]bool{}
	for i, fx := range fixtures {
		local[fx.path] = true
		names, err := filepath.Glob(filepath.Join(fx.dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files[i] = append(files[i], f)
			for _, spec := range f.Imports {
				imports[strings.Trim(spec.Path.Value, `"`)] = true
			}
		}
	}
	var patterns []string
	for p := range imports {
		if !local[p] {
			patterns = append(patterns, p)
		}
	}
	sort.Strings(patterns)
	moduleDir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	std, err := analysis.ExportImporter(moduleDir, fset, patterns)
	if err != nil {
		return nil, err
	}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*analysis.Package
	for i, fx := range fixtures {
		if len(files[i]) == 0 {
			continue
		}
		info := analysis.NewTypesInfo()
		tpkg, err := conf.Check(fx.path, fset, files[i], info)
		if err != nil {
			return nil, err
		}
		checked[fx.path] = tpkg
		pkgs = append(pkgs, &analysis.Package{Fset: fset, Path: fx.path, Files: files[i], Types: tpkg, Info: info})
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
