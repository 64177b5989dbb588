package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader type-checks module packages with nothing beyond the standard
// library and the go tool: `go list -export -deps` yields every
// dependency's compiled export data from the build cache (offline — no
// module proxy involved), the gc importer reads it, and the module's own
// packages are parsed and type-checked from source in dependency order so
// analyzers get syntax trees with full type information.

// Package is one loaded, type-checked module package.
type Package struct {
	Fset  *token.FileSet
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// UsesOnly marks a package the patterns did not select: it feeds the
	// module-wide use set but is not analyzed.
	UsesOnly bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
}

// goList runs `go list -export -deps -json` for patterns in dir and
// returns the decoded package stream in dependency-first order.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter returns an importer over compiled export data for the
// packages matched by patterns (typically the standard-library import
// paths a test fixture uses), resolved by `go list -export` run in dir.
// The analysistest harness uses it to type-check fixture packages that
// live outside the module's build graph.
func ExportImporter(dir string, fset *token.FileSet, patterns []string) (types.Importer, error) {
	var listed []listPkg
	var err error
	if len(patterns) > 0 {
		listed, err = goList(dir, patterns)
	}
	return exportImporter(fset, listed), err
}

// exportImporter returns the gc importer over listed's export data.
func exportImporter(fset *token.FileSet, listed []listPkg) types.Importer {
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(e)
	})
}

// moduleImporter resolves already-checked module packages by identity
// and everything else from export data.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

// LoadPackages type-checks every package of the module that contains
// dir, returning them in dependency-first order. The packages matched by
// patterns (relative to dir) and their module dependencies are analyzed;
// the rest are marked UsesOnly, so a narrow pattern sees the same
// module-wide use set as ./... . Standard library dependencies are
// imported from export data, not analyzed.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	selected, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	analyze := make(map[string]bool)
	for _, p := range selected {
		analyze[p.ImportPath] = true
	}
	env := exec.Command("go", "env", "GOMOD")
	env.Dir = dir
	gomod, err := env.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go env GOMOD: %w", err)
	}
	listed, err := goList(filepath.Dir(strings.TrimSpace(string(gomod))), []string{"./..."})
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{checked: make(map[string]*types.Package), gc: exportImporter(fset, listed)}
	var out []*Package
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkg.UsesOnly = !analyze[p.ImportPath]
		imp.checked[p.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// checkPackage parses and type-checks one module package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, p listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{
		Fset:  fset,
		Path:  p.ImportPath,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// NewTypesInfo allocates the type-checker result maps the analyzers
// consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
