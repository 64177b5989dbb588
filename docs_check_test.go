// docs_check_test.go keeps the documentation honest: every relative
// markdown link in README.md and docs/ must resolve to a file in the
// repository, docs/FLAGS.md must agree with the binaries' actual flag
// sets, and docs/EXPERIMENTS.md with the experiments.Sweeps registry —
// each in both directions: a name documented but not defined is as much
// a failure as one defined but not documented.
package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

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

// definedFlags extracts the flag names a binary registers by scanning
// its sources for flag.<Type>("name", ...) calls.
func definedFlags(t *testing.T, binary string) map[string]bool {
	t.Helper()
	re := regexp.MustCompile(`flag\.(?:String|Bool|Int64|Int|Uint64|Float64|Duration)\(\s*"([^"]+)"`)
	flags := map[string]bool{}
	srcs, err := filepath.Glob(filepath.Join("cmd", binary, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for cmd/%s: %v", binary, err)
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}

// documentedFlags parses docs/FLAGS.md into per-binary flag sets: a
// "## binary" heading opens a section, and each table row whose first
// cell is `-name` documents one flag.
func documentedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("docs", "FLAGS.md"))
	if err != nil {
		t.Fatalf("reading docs/FLAGS.md: %v", err)
	}
	rowRE := regexp.MustCompile("^\\| `-([a-z0-9-]+)` ")
	sections := map[string]map[string]bool{}
	var current string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "## "); ok {
			current = strings.TrimSpace(name)
			sections[current] = map[string]bool{}
			continue
		}
		if m := rowRE.FindStringSubmatch(line); m != nil {
			if current == "" {
				t.Fatalf("docs/FLAGS.md: flag row %q before any binary heading", line)
			}
			sections[current][m[1]] = true
		}
	}
	return sections
}

// TestDocsFlagsMatchBinaries asserts docs/FLAGS.md and the binaries
// agree: one section per cmd/ binary, every documented flag defined,
// every defined flag documented.
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
			if !docs[name] {
				t.Errorf("cmd/%s defines -%s but docs/FLAGS.md does not document it", binary, name)
			}
		}
		for _, name := range sorted(docs) {
			if !defined[name] {
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

func sorted(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
