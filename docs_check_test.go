// docs_check_test.go keeps the documentation honest: every relative
// markdown link in README.md and docs/ must resolve to a file in the
// repository, docs/FLAGS.md must agree with the binaries' actual flag
// sets and defaults, and docs/EXPERIMENTS.md with the
// experiments.Sweeps registry — each in both directions: a name
// documented but not defined is as much a failure as one defined but not
// documented. A figure the docs cite from a pinned sweep must read what
// its baseline holds.
package bench

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files
}

// mdLinkRE matches the destination of an inline markdown link. External
// schemes and pure-anchor links are filtered by the caller.
var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve asserts every relative link in README.md and
// docs/*.md points at a file or directory that exists, with anchors
// stripped and external URLs skipped.
func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range docFiles(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(data), -1) {
			dest := m[1]
			if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") {
				continue
			}
			if i := strings.Index(dest, "#"); i >= 0 {
				dest = dest[:i]
			}
			if dest == "" { // same-page anchor
				continue
			}
			target := filepath.Join(filepath.Dir(doc), dest)
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s: link %q does not resolve (%v)", doc, m[1], err)
			}
		}
	}
}

// flagKinds are the flag package's definers a binary registers flags with.
var flagKinds = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true, "Uint64": true, "Float64": true, "Duration": true,
}

// flagDef is one flag a binary registers: its definer's type and the
// expression of its default.
type flagDef struct {
	kind string
	def  ast.Expr
}

// definedFlags parses a binary's sources for its flag.<Type>("name",
// default, …) calls.
func definedFlags(t *testing.T, binary string) map[string]flagDef {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("cmd", binary, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for cmd/%s: %v", binary, err)
	}
	flags := map[string]flagDef{}
	fset := token.NewFileSet()
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, src, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", src, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || types.ExprString(sel.X) != "flag" || !flagKinds[sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value) // parsed, so well-formed
				flags[name] = flagDef{kind: sel.Sel.Name, def: call.Args[1]}
			}
			return true
		})
	}
	return flags
}

// documentedFlags parses docs/FLAGS.md into per-binary flag tables: a
// "## binary" heading opens a section, and each table row whose first
// cell is `-name` documents one flag, mapped to its Default cell with the
// backquotes cut.
func documentedFlags(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("docs", "FLAGS.md"))
	if err != nil {
		t.Fatalf("reading docs/FLAGS.md: %v", err)
	}
	rowRE := regexp.MustCompile("^\\| `-([a-z0-9-]+)` \\| ([^|]*) \\|")
	sections := map[string]map[string]string{}
	var current string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			current = strings.TrimSpace(name)
			sections[current] = map[string]string{}
			continue
		}
		if m := rowRE.FindStringSubmatch(line); m != nil {
			if current == "" {
				t.Fatalf("docs/FLAGS.md: flag row %q before any binary heading", line)
			}
			sections[current][m[1]] = strings.Trim(m[2], "`")
		}
	}
	return sections
}

// expressionDefaults are the flag defaults a binary writes as an
// expression rather than a literal, keyed as go/types prints the
// expression, with the value it evaluates to. A default that is neither a
// literal nor listed here fails the test instead of going unchecked.
var expressionDefaults = map[string]any{
	"core.DefaultPrefixChunk": core.DefaultPrefixChunk,
	"10 * time.Minute":        10 * time.Minute,
}

// defaultText is a flag default as text parseDefault reads: a literal's
// own text, or an expressionDefaults entry's value. ok is false for any
// other expression.
func defaultText(e ast.Expr) (text string, ok bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return e.Value, true
		}
		s, err := strconv.Unquote(e.Value)
		if s == "" {
			s = `""`
		}
		return s, err == nil
	case *ast.Ident:
		return e.Name, e.Name == "true" || e.Name == "false"
	}
	v, ok := expressionDefaults[types.ExprString(e)]
	return fmt.Sprint(v), ok
}

// parseDefault reads a default written as text into the flag's own type,
// so `1` and `1.0`, or `10m` and `10m0s`, compare equal; docs/FLAGS.md
// writes the empty string as "".
func parseDefault(kind, text string) (any, error) {
	switch kind {
	case "Bool":
		return strconv.ParseBool(text)
	case "Int", "Int64":
		return strconv.ParseInt(text, 0, 64)
	case "Uint64":
		return strconv.ParseUint(text, 0, 64)
	case "Float64":
		return strconv.ParseFloat(text, 64)
	case "Duration":
		return time.ParseDuration(text)
	}
	if text == `""` {
		return "", nil
	}
	return text, nil
}

// TestDocsFlagsMatchBinaries asserts docs/FLAGS.md and the binaries
// agree: one section per cmd/ binary, every documented flag defined,
// every defined flag documented, and each Default cell equal to the
// default the binary compiles in.
func TestDocsFlagsMatchBinaries(t *testing.T) {
	documented := documentedFlags(t)

	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatalf("reading cmd/: %v", err)
	}
	var binaries []string
	for _, e := range entries {
		if e.IsDir() {
			binaries = append(binaries, e.Name())
		}
	}

	for _, binary := range binaries {
		docs := documented[binary]
		if docs == nil {
			t.Errorf("docs/FLAGS.md: no section for cmd/%s", binary)
			continue
		}
		defined := definedFlags(t, binary)
		for _, name := range sorted(defined) {
			cell, ok := docs[name]
			if !ok {
				t.Errorf("cmd/%s defines -%s but docs/FLAGS.md does not document it", binary, name)
				continue
			}
			f := defined[name]
			text, ok := defaultText(f.def)
			if !ok {
				t.Errorf("cmd/%s -%s defaults to %s, neither a literal nor an expressionDefaults entry",
					binary, name, types.ExprString(f.def))
				continue
			}
			want, err := parseDefault(f.kind, text)
			if err != nil {
				t.Errorf("cmd/%s -%s: default %q: %v", binary, name, text, err)
				continue
			}
			if got, err := parseDefault(f.kind, cell); err != nil || got != want {
				t.Errorf("docs/FLAGS.md gives %s -%s the default %q; the binary's is %s", binary, name, cell, text)
			}
		}
		for _, name := range sorted(docs) {
			if _, ok := defined[name]; !ok {
				t.Errorf("docs/FLAGS.md documents -%s for %s but the binary does not define it", name, binary)
			}
		}
	}
	for section := range documented {
		found := false
		for _, b := range binaries {
			if b == section {
				found = true
			}
		}
		if !found {
			t.Errorf("docs/FLAGS.md has a section %q that is not a cmd/ binary", section)
		}
	}
}

// TestDocsAnalyzersMatchSuite asserts README.md's "Static analysis"
// section and analysis.All() agree: every analyzer symphonyvet runs has
// a "- **name** —" bullet, and every bullet names an analyzer it runs.
func TestDocsAnalyzersMatchSuite(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	_, section, _ := strings.Cut(string(data), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	bulletRE := regexp.MustCompile(`(?m)^- \*\*([a-z]+)\*\* —`)
	documented := map[string]bool{}
	for _, m := range bulletRE.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for _, a := range analysis.All() {
		if !documented[a.Name] {
			t.Errorf("symphonyvet runs %s but README.md's Static analysis section has no bullet for it", a.Name)
		}
		delete(documented, a.Name)
	}
	for _, name := range sorted(documented) {
		t.Errorf("README.md documents analyzer %s but analysis.All() does not run it", name)
	}
}

// TestDocsExperimentsMatchRegistry asserts docs/EXPERIMENTS.md and the
// experiments.Sweeps registry agree: every registered sweep is
// documented — as a table row whose first cell is `name`, or a
// "### `name`" section — and every documented -exp name is registered.
func TestDocsExperimentsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatalf("reading docs/EXPERIMENTS.md: %v", err)
	}
	entryRE := regexp.MustCompile("^(?:\\| |### )`([a-z0-9]+)`(?: \\||$)")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := entryRE.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	for _, s := range experiments.Sweeps {
		if !documented[s.Name] {
			t.Errorf("-exp %s is registered but docs/EXPERIMENTS.md does not document it", s.Name)
		}
		delete(documented, s.Name)
	}
	for _, name := range sorted(documented) {
		t.Errorf("docs/EXPERIMENTS.md documents -exp %s but it is not registered", name)
	}
}

// benchMarkerRE matches a figure's binding, `<!--bench EXP PATH FORMAT-->`
// or `<!--bench EXP PATH FORMAT UNIT-->`, written just ahead of the figure
// it binds: the cited text must start with fmt.Sprintf(FORMAT, the value
// at PATH in bench/baselines/BENCH_EXP.json). PATH is dot-separated field
// names, each optionally indexed, as in points[1].Speedup. UNIT, ms or s,
// reads a duration stored in nanoseconds in that unit.
var benchMarkerRE = regexp.MustCompile(`<!--bench ([a-z0-9]+) (\S+) (%\S+)(?: (ms|s))?-->`)

// benchUnits is each UNIT's size in nanoseconds.
var benchUnits = map[string]float64{"ms": 1e6, "s": 1e9}

// TestDocsFiguresMatchBaselines asserts every bound figure in README.md
// and docs/*.md reads what its quick-run baseline holds, so a
// regeneration that moves a cited figure fails until the prose moves in
// the same commit.
func TestDocsFiguresMatchBaselines(t *testing.T) {
	baselines := map[string]any{}
	bound := 0
	for _, doc := range docFiles(t) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(data)
		for _, m := range benchMarkerRE.FindAllStringSubmatchIndex(text, -1) {
			bound++
			exp, path, format := text[m[2]:m[3]], text[m[4]:m[5]], text[m[6]:m[7]]
			unit := ""
			if m[8] >= 0 {
				unit = text[m[8]:m[9]]
			}
			if baselines[exp] == nil {
				raw, err := os.ReadFile(filepath.Join("bench", "baselines", "BENCH_"+exp+".json"))
				if err != nil {
					t.Fatalf("%s: %v", doc, err)
				}
				var v any
				if err := json.Unmarshal(raw, &v); err != nil {
					t.Fatalf("%s: BENCH_%s.json: %v", doc, exp, err)
				}
				baselines[exp] = v
			}
			v, err := jsonPath(baselines[exp], path)
			if err != nil {
				t.Errorf("%s: %s %s: %v", doc, exp, path, err)
				continue
			}
			if f, ok := v.(float64); ok && unit != "" {
				v = f / benchUnits[unit]
			}
			if f, ok := v.(float64); ok && strings.HasSuffix(format, "d") {
				v = int64(f)
			}
			want := fmt.Sprintf(format, v)
			if !strings.HasPrefix(text[m[1]:], want) {
				cited, _, _ := strings.Cut(text[m[1]:], " ")
				t.Errorf("%s: cites %q where BENCH_%s.json %s reads %s", doc, cited, exp, path, want)
			}
		}
	}
	if bound == 0 {
		t.Fatal("no <!--bench …--> marker in README.md or docs/")
	}
}

// jsonPath walks a decoded JSON value along a path such as
// points[1].Speedup.
func jsonPath(v any, path string) (any, error) {
	for _, step := range strings.Split(path, ".") {
		name, index, indexed := strings.Cut(strings.TrimSuffix(step, "]"), "[")
		obj, _ := v.(map[string]any)
		field, ok := obj[name]
		if !ok {
			return nil, fmt.Errorf("no field %q", name)
		}
		v = field
		if indexed {
			i, err := strconv.Atoi(index)
			arr, _ := v.([]any)
			if err != nil || i < 0 || i >= len(arr) {
				return nil, fmt.Errorf("%s: no element [%s]", name, index)
			}
			v = arr[i]
		}
	}
	return v, nil
}

func sorted[V any](set map[string]V) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
