package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// fullConfig is a kernel with every subsystem the daemon can switch on.
func fullConfig() core.Config {
	full := core.DefaultConfig()
	full.KV = kvd.Config{Policy: "lru"}
	full.Replicas = 2
	full.Dispatcher = &sched.CacheAffinityMigrate{}
	full.Spec = &core.SpecConfig{Draft: "draft-1b"}
	full.PriorityPolicy = &sched.Lanes{SliceTokens: 64, AgeAfter: sched.DefaultAgeAfter}
	full.Prefix = core.PrefixConfig{Enabled: true, ChunkTokens: 16}
	full.Disk = core.DiskConfig{Bytes: 1 << 30}
	return full
}

// goldenServer serves a kernel built from cfg on a pure virtual clock,
// after three identical completions.
func goldenServer(tb testing.TB, cfg core.Config) *Server {
	tb.Helper()
	clk := simclock.New()
	tb.Cleanup(clk.Shutdown)
	srv := NewWith(clk, core.New(clk, cfg), Options{})
	body := `{"prompt":"` + strings.Repeat("the same long shared preamble ", 8) + `","max_tokens":8}`
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("completion %d: status %d: %s", i, rec.Code, rec.Body)
		}
		clk.WaitQuiescent()
	}
	return srv
}

// TestStatsGolden pins the /v1/stats document byte for byte, once for a
// kernel with every subsystem the daemon can switch on and once for a
// zero-config kernel, each after three identical completions on a pure
// virtual clock. A key, unit or default that moves shows up here.
func TestStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		cfg    core.Config
	}{
		{"stats.golden.json", fullConfig()},
		{"stats_zero.golden.json", core.Config{
			Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			srv := goldenServer(t, tc.cfg)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("GET /v1/stats =\n%s\nwant testdata/%s:\n%s", got, tc.golden, want)
			}
		})
	}
}

// TestStatsFieldsDecided asserts every exported field of core.Stats and
// of each struct it serves carries a stats tag, a path or "-", so a new
// counter is never left unserved by accident. It also holds the walk's
// rules: an empty path only on a struct, a unit only on a time.Duration.
func TestStatsFieldsDecided(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var check func(reflect.Type)
	check = func(st reflect.Type) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if !f.IsExported() {
				continue
			}
			name := st.String() + "." + f.Name
			tag, ok := f.Tag.Lookup("stats")
			if !ok {
				t.Errorf("%s has no stats tag: serve it with a path or mark it `stats:\"-\"`", name)
			}
			elem := f.Type
			if elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			if elem.Kind() == reflect.Struct {
				check(elem)
			}
			path, unit, _ := strings.Cut(tag, ",")
			switch {
			case path == "" && ok && f.Type.Kind() != reflect.Struct:
				t.Errorf("%s: an empty path inlines a struct, but the field is a %s", name, f.Type)
			case unit != "" && f.Type != reflect.TypeOf(time.Duration(0)):
				t.Errorf("%s: unit %q on a %s, not a time.Duration", name, unit, f.Type)
			case unit != "" && unit != "us" && unit != "ms" && unit != "str":
				t.Errorf("%s: unknown unit %q", name, unit)
			}
		}
	}
	check(reflect.TypeOf(core.Stats{}))
	if len(seen) != 8 {
		t.Errorf("walked %d Stats structs, want the eight core.Stats serves", len(seen))
	}
}

// statsKeyRE matches a docs/STATS.md row: its first cell is a key path.
var statsKeyRE = regexp.MustCompile("^\\| `([a-z0-9_.\\[\\]]+)` \\|")

// TestStatsDocs asserts docs/STATS.md lists every key of the
// fully-featured golden document exactly once, "[]" marking an array's
// elements, and no key the document lacks.
func TestStatsDocs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "stats.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		default:
			served[prefix] = true
		}
	}
	walk("", doc)

	md, err := os.ReadFile(filepath.Join("..", "..", "docs", "STATS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(md), "\n") {
		m := statsKeyRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if documented[m[1]] {
			t.Errorf("docs/STATS.md lists %s twice", m[1])
		}
		documented[m[1]] = true
	}
	for _, k := range sortedKeys(served) {
		if !documented[k] {
			t.Errorf("/v1/stats serves %s but docs/STATS.md does not list it", k)
		}
	}
	for _, k := range sortedKeys(documented) {
		if !served[k] {
			t.Errorf("docs/STATS.md lists %s but /v1/stats does not serve it", k)
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BenchmarkStatsHandler is GET /v1/stats on the fully-featured golden
// kernel: the walk, the hand-set keys and the JSON encoding.
func BenchmarkStatsHandler(b *testing.B) {
	srv := goldenServer(b, fullConfig())
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
