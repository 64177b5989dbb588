package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simclock"
)

func newServer(t *testing.T) (*Server, *simclock.Clock) {
	t.Helper()
	// A heavily accelerated realtime clock keeps HTTP tests fast while
	// preserving pacing semantics.
	clk := simclock.NewRealtime(10000)
	k := core.New(clk, core.Config{
		Models:     map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
		Replicas:   2,
		Dispatcher: sched.LeastLoaded{},
	})
	k.RegisterTool("echo", core.Tool{
		Latency: 10 * time.Millisecond,
		Fn:      func(args string) (string, error) { return "echo:" + args, nil },
	})
	return NewWith(clk, k, Options{}), clk
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, programResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out programResponse
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	json.Unmarshal(buf.Bytes(), &out)
	return resp, out
}

func TestHealthAndStats(t *testing.T) {
	srv, clk := newServer(t)
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// One synchronous completion, so the stats below describe a drained run.
	if resp, out := post(t, ts, "/v1/completions", `{"prompt":"hello symphony","max_tokens":8}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("completion: status %d: %+v", resp.StatusCode, out)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if _, ok := st["gpu_page_cap"]; !ok {
		t.Fatalf("stats missing fields: %v", st)
	}
	if got := st["gpus"]; got != float64(2) {
		t.Fatalf("gpus = %v, want 2", got)
	}
	if got := st["dispatcher"]; got != "least-loaded" {
		t.Fatalf("dispatcher = %v", got)
	}
	replicas, ok := st["replicas"].([]any)
	if !ok || len(replicas) != 2 {
		t.Fatalf("replicas rollup missing: %v", st["replicas"])
	}
	var replicaTokens float64
	for i, r := range replicas {
		m, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("replica %d not an object: %v", i, r)
		}
		for _, field := range []string{"id", "calls", "utilization", "avg_batch", "queue_delay_us"} {
			if _, ok := m[field]; !ok {
				t.Fatalf("replica %d missing %q: %v", i, field, m)
			}
		}
		replicaTokens += m["tokens"].(float64)
	}

	// The ledger's conservation terms are published, and they conserve:
	// every submitted token was executed once, plus whatever crashes threw
	// away and re-executed.
	for _, path := range []string{
		"executed_tokens", "lost_tokens", "crashes", "requeued", "kvd.spill_rollbacks",
		"migration.transfer_aborts", "migration.replica_crashes", "migration.invalidated_roots",
	} {
		var v any = st
		for _, key := range strings.Split(path, ".") {
			v = v.(map[string]any)[key]
		}
		if _, ok := v.(float64); !ok {
			t.Fatalf("stats missing %s: %v", path, st)
		}
	}
	executed, lost := st["executed_tokens"].(float64), st["lost_tokens"].(float64)
	if executed == 0 || executed != replicaTokens+lost {
		t.Fatalf("executed_tokens = %v, want replicas' tokens %v + lost_tokens %v", executed, replicaTokens, lost)
	}
}

func TestCompletionsEndpoint(t *testing.T) {
	srv, clk := newServer(t)
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, out := post(t, ts, "/v1/completions", `{"prompt":"hello symphony","max_tokens":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if out.Output == "" || out.PredTokens == 0 || out.PID == 0 {
		t.Fatalf("degenerate response: %+v", out)
	}
	if out.VirtualTime == "0s" {
		t.Fatalf("no virtual time charged: %+v", out)
	}

	// Identical request reproduces identical text (deterministic substrate).
	_, out2 := post(t, ts, "/v1/completions", `{"prompt":"hello symphony","max_tokens":8}`)
	if out2.Output != out.Output {
		t.Fatalf("nondeterministic completions: %q vs %q", out.Output, out2.Output)
	}

	// Validation errors.
	resp, _ = post(t, ts, "/v1/completions", `{"max_tokens":8}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing prompt accepted: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/v1/completions", `{"prompt":"x","max_tokens":8,"bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
}

func TestProgramsEndpoint(t *testing.T) {
	srv, clk := newServer(t)
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	script := `{"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"use the tool. "},
		{"op":"call","tool":"echo","text":"ping","out":"r"},
		{"op":"prefill","s":"a","text":"${r} "},
		{"op":"generate","s":"a","max_tokens":6},
		{"op":"emit","text":" [tool said ${r}]"},
		{"op":"remove","s":"a"}
	]}`
	resp, out := post(t, ts, "/v1/programs", script)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if !strings.Contains(out.Output, "[tool said echo:ping]") {
		t.Fatalf("tool result missing from output: %q", out.Output)
	}

	// Invalid scripts are rejected before execution.
	resp, _ = post(t, ts, "/v1/programs", `{"steps":[{"op":"hack"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid script accepted: %d", resp.StatusCode)
	}

	// Budget violations surface as process errors, not 200s.
	resp, out = post(t, ts, "/v1/programs", `{"budget":2,"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"far too many tokens for two"}
	]}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || out.Error == "" {
		t.Fatalf("budget violation not surfaced: %d %+v", resp.StatusCode, out)
	}
}

func TestMethodValidation(t *testing.T) {
	srv, clk := newServer(t)
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/v1/programs", "/v1/completions"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	srv, clk := newServer(t)
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			body := `{"prompt":"client ` + string(rune('a'+i)) + `","max_tokens":4}`
			resp, err := http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = http.ErrBodyNotAllowed
				}
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent client: %v", err)
		}
	}
}
