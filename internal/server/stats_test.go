package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kvd"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// TestStatsGolden pins the /v1/stats document byte for byte, once for a
// kernel with every subsystem the daemon can switch on and once for a
// zero-config kernel, each after three identical completions on a pure
// virtual clock. A key, unit or default that moves shows up here.
func TestStatsGolden(t *testing.T) {
	full := core.DefaultConfig()
	full.KV = kvd.Config{Policy: "lru"}
	full.Replicas = 2
	full.Dispatcher = &sched.CacheAffinityMigrate{}
	full.Spec = &core.SpecConfig{Draft: "draft-1b"}
	full.PrefillChunk = 64
	full.Prefix = core.PrefixConfig{Enabled: true, ChunkTokens: 16}
	full.Disk = core.DiskConfig{Bytes: 1 << 30}
	for _, tc := range []struct {
		golden string
		cfg    core.Config
	}{
		{"stats.golden.json", full},
		{"stats_zero.golden.json", core.Config{
			Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			clk := simclock.New()
			defer clk.Shutdown()
			srv := New(clk, core.New(clk, tc.cfg))
			body := `{"prompt":"` + strings.Repeat("the same long shared preamble ", 8) + `","max_tokens":8}`
			for i := 0; i < 3; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("completion %d: status %d: %s", i, rec.Code, rec.Body)
				}
				clk.WaitQuiescent()
			}
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
