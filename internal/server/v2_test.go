package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/simclock"
)

// longGenScript runs far longer than any test's patience (about 78s of
// virtual time greedy before EOS), so cancellation always races ahead of
// natural completion.
const longGenScript = `{"steps":[
	{"op":"anon","s":"a"},
	{"op":"prefill","s":"a","text":"stream me "},
	{"op":"generate","s":"a","max_tokens":4000}
]}`

const shortScript = `{"steps":[
	{"op":"anon","s":"a"},
	{"op":"emit","text":"[begin]"},
	{"op":"prefill","s":"a","text":"hello symphony "},
	{"op":"generate","s":"a","max_tokens":5},
	{"op":"emit","text":"[end]"},
	{"op":"remove","s":"a"}
]}`

func newServerWith(t *testing.T, speedup float64, o Options) (*Server, *simclock.Clock) {
	t.Helper()
	clk := simclock.NewRealtime(speedup)
	k := core.New(clk, core.Config{
		Models: map[string]*model.Model{"llama-13b": model.New(model.Llama13B())},
	})
	return NewWith(clk, k, o), clk
}

func submitV2(t *testing.T, ts *httptest.Server, user, script string) jobResponse {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/programs", strings.NewReader(script))
	if user != "" {
		req.Header.Set("X-Symphony-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var out jobResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, out)
	}
	if out.JobID == "" || out.PID == 0 || out.EventsURL == "" {
		t.Fatalf("incomplete submit response: %+v", out)
	}
	return out
}

func pollV2(t *testing.T, ts *httptest.Server, id string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/programs/" + id)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	defer resp.Body.Close()
	var out jobResponse
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// waitTerminal polls until the job reaches a terminal status.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, out := pollV2(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d (%+v)", id, code, out)
		}
		if out.Status.Terminal() {
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return jobResponse{}
}

// streamEvents reads the job's SSE stream, invoking handle per event
// until it returns false or the stream ends. It returns the events seen.
func streamEvents(t *testing.T, ctx context.Context, ts *httptest.Server, id string,
	handle func(core.ProcEvent) bool) []core.ProcEvent {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/programs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []core.ProcEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev core.ProcEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events = append(events, ev)
		if handle != nil && !handle(ev) {
			break
		}
	}
	return events
}

func TestV2SubmitPollDone(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submitV2(t, ts, "alice", shortScript)
	out := waitTerminal(t, ts, sub.JobID)
	if out.Status != core.StatusDone {
		t.Fatalf("status = %s (%s), want done", out.Status, out.Error)
	}
	if !strings.HasPrefix(out.Output, "[begin]") || !strings.HasSuffix(out.Output, "[end]") {
		t.Fatalf("output = %q, want [begin]...[end]", out.Output)
	}
	if out.PredTokens == 0 || out.User != "alice" {
		t.Fatalf("accounting missing: %+v", out)
	}
}

func TestV2CancelMidGeneration(t *testing.T) {
	// Moderate speedup: the long generation takes ~400ms of wall time, so
	// the DELETE lands mid-generation with a wide margin on both sides.
	srv, clk := newServerWith(t, 200, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submitV2(t, ts, "alice", longGenScript)

	sawToken := false
	events := streamEvents(t, context.Background(), ts, sub.JobID, func(ev core.ProcEvent) bool {
		if ev.Kind == core.EventToken && !sawToken {
			sawToken = true
			// First streamed token: cancel from a second connection.
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/programs/"+sub.JobID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("cancel: %v", err)
				return false
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("cancel status %d", resp.StatusCode)
				return false
			}
		}
		return !ev.Final // keep reading until the terminal event
	})
	if !sawToken {
		t.Fatalf("no token events observed before stream end")
	}
	last := events[len(events)-1]
	if !last.Final || last.Status != core.StatusCancelled {
		t.Fatalf("terminal event = %+v, want final cancelled", last)
	}

	out := waitTerminal(t, ts, sub.JobID)
	if out.Status != core.StatusCancelled || out.Code != CodeCancelled {
		t.Fatalf("poll after cancel = %+v, want cancelled/%s", out, CodeCancelled)
	}
	// The generation was cut short: nowhere near its natural ~3800-token
	// run (cancel latency is a handful of tokens at this pacing).
	if out.PredTokens >= 3000 {
		t.Fatalf("cancel did not stop generation: %d pred tokens", out.PredTokens)
	}
}

func TestV2EventsOrderingReplay(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submitV2(t, ts, "alice", shortScript)
	waitTerminal(t, ts, sub.JobID)

	// A subscriber attaching after completion replays the retained ring.
	events := streamEvents(t, context.Background(), ts, sub.JobID, nil)
	if len(events) < 5 {
		t.Fatalf("replay too short: %d events", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != core.EventStatus || first.Status != core.StatusRunning {
		t.Fatalf("first event = %+v, want status running", first)
	}
	if !last.Final || last.Status != core.StatusDone {
		t.Fatalf("last event = %+v, want final done", last)
	}
	prevSeq := int64(0)
	genStart, genEnd, tokenSeen := int64(-1), int64(-1), int64(-1)
	for _, ev := range events {
		if ev.Seq <= prevSeq {
			t.Fatalf("sequence not increasing: %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if ev.Final && ev.Seq != last.Seq {
			t.Fatalf("final event not last: %+v", ev)
		}
		if ev.Kind == core.EventStatement && ev.Op == "generate" {
			if ev.Phase == "start" {
				genStart = ev.Seq
			} else {
				genEnd = ev.Seq
			}
		}
		if ev.Kind == core.EventToken && tokenSeen < 0 {
			tokenSeen = ev.Seq
		}
	}
	// Statement events bracket the token chunks, all before the terminal.
	if genStart < 0 || genEnd < 0 || tokenSeen < 0 {
		t.Fatalf("missing statement/token events: start=%d end=%d token=%d", genStart, genEnd, tokenSeen)
	}
	if !(genStart < tokenSeen && tokenSeen < genEnd && genEnd < last.Seq) {
		t.Fatalf("event ordering wrong: start=%d token=%d end=%d final=%d",
			genStart, tokenSeen, genEnd, last.Seq)
	}

	// Resuming from the middle replays only the suffix.
	resp, err := http.Get(ts.URL + "/v2/programs/" + sub.JobID + "/events?from=" +
		fmt.Sprint(genEnd))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id: ") {
			if got := strings.TrimPrefix(sc.Text(), "id: "); got != fmt.Sprint(genEnd) {
				t.Fatalf("resume-from id = %s, want %d", got, genEnd)
			}
			return
		}
	}
	t.Fatalf("no events after resume")
}

// TestV2SampledGenerateStreamsOneTokenPerStep reads the executor's
// hand-off off the socket: a sampled generate is one decode run that
// streams each token at the end of the step that made it, so alone on the
// daemon's GPU the token frames' at_ns (virtual publish time, whatever the
// speedup) come one solo decode step apart.
func TestV2SampledGenerateStreamsOneTokenPerStep(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sub := submitV2(t, ts, "alice", `{"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"hello symphony "},
		{"op":"generate","s":"a","max_tokens":24,"temperature":0.4,"seed":2}
	]}`)
	waitTerminal(t, ts, sub.JobID)
	step := model.A100Llama13B().StepTime([]model.BatchCall{{NewTokens: 1}})
	tokens, last := 0, time.Duration(0)
	for _, ev := range streamEvents(t, context.Background(), ts, sub.JobID, nil) {
		if ev.Kind != core.EventToken {
			continue
		}
		if tokens > 0 && ev.At-last != step {
			t.Errorf("token %d came %v after token %d, want one decode step (%v)", tokens, ev.At-last, tokens-1, step)
		}
		tokens, last = tokens+1, ev.At
	}
	if tokens < 12 {
		t.Fatalf("%d token events, want at least 12", tokens)
	}
}

// sseFrame is one raw SSE frame: the optional id and event-name lines
// plus the data payload.
type sseFrame struct {
	id, event, data string
}

// readSSEFrames performs a GET on the job's event stream with the given
// Last-Event-ID header and parses every frame until the stream closes.
func readSSEFrames(t *testing.T, ts *httptest.Server, id, lastEventID string) []sseFrame {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/programs/"+id+"/events", nil)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

func TestV2EventsResumeBeforeRingWindowSignalsGap(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Generate more events than the 512-event replay ring retains.
	sub := submitV2(t, ts, "alice", `{"steps":[
		{"op":"anon","s":"a"},
		{"op":"prefill","s":"a","text":"stream me "},
		{"op":"generate","s":"a","max_tokens":600}
	]}`)
	waitTerminal(t, ts, sub.JobID)

	// Resuming from Last-Event-ID 1 (long evicted) must lead with an
	// explicit gap frame naming the lost range, then replay the window.
	frames := readSSEFrames(t, ts, sub.JobID, "1")
	if len(frames) < 2 {
		t.Fatalf("too few frames: %d", len(frames))
	}
	gap := frames[0]
	if gap.event != "gap" {
		t.Fatalf("first frame = %+v, want an explicit gap event", gap)
	}
	if gap.id != "" {
		t.Fatalf("gap frame carries an SSE id %q; it must not disturb Last-Event-ID", gap.id)
	}
	var missed struct {
		From int64 `json:"missed_from"`
		To   int64 `json:"missed_to"`
	}
	if err := json.Unmarshal([]byte(gap.data), &missed); err != nil {
		t.Fatalf("gap data %q: %v", gap.data, err)
	}
	firstReplayed, err := strconv.ParseInt(frames[1].id, 10, 64)
	if err != nil {
		t.Fatalf("replay frame id %q: %v", frames[1].id, err)
	}
	if missed.From != 2 || missed.To != firstReplayed-1 {
		t.Fatalf("gap = [%d,%d], want [2,%d]", missed.From, missed.To, firstReplayed-1)
	}
	if firstReplayed <= 2 {
		t.Fatalf("no events were actually evicted (first replayed %d); test is vacuous", firstReplayed)
	}
	if last := frames[len(frames)-1]; !strings.Contains(last.data, `"final":true`) {
		t.Fatalf("stream did not end with the terminal event: %+v", last)
	}

	// A resume inside the retained window stays gap-free.
	within := readSSEFrames(t, ts, sub.JobID, strconv.FormatInt(firstReplayed+5, 10))
	if len(within) == 0 {
		t.Fatal("no frames for in-window resume")
	}
	for _, f := range within {
		if f.event == "gap" {
			t.Fatalf("gap frame on in-window resume: %+v", f)
		}
	}
	// And a fresh attach (no Last-Event-ID) replays the ring silently.
	fresh := readSSEFrames(t, ts, sub.JobID, "")
	if len(fresh) == 0 || fresh[0].event == "gap" {
		t.Fatalf("fresh attach mishandled: %+v", fresh[:1])
	}
}

func TestV2ListTenantIsolation(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a1 := submitV2(t, ts, "alice", shortScript)
	a2 := submitV2(t, ts, "alice", shortScript)
	b1 := submitV2(t, ts, "bob", shortScript)
	waitTerminal(t, ts, a1.JobID)
	waitTerminal(t, ts, a2.JobID)
	waitTerminal(t, ts, b1.JobID)

	list := func(query string, hdr string) (string, []jobResponse) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/programs"+query, nil)
		if hdr != "" {
			req.Header.Set("X-Symphony-User", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			User string        `json:"user"`
			Jobs []jobResponse `json:"jobs"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return out.User, out.Jobs
	}

	u, jobs := list("?user=alice", "")
	if u != "alice" || len(jobs) != 2 {
		t.Fatalf("alice list: user=%s n=%d", u, len(jobs))
	}
	for _, j := range jobs {
		if j.User != "alice" {
			t.Fatalf("alien job in alice's list: %+v", j)
		}
		if j.JobID == b1.JobID {
			t.Fatalf("bob's job leaked into alice's list")
		}
	}
	// No query parameter: the requesting tenant's own jobs.
	u, jobs = list("", "bob")
	if u != "bob" || len(jobs) != 1 || jobs[0].JobID != b1.JobID {
		t.Fatalf("bob list: user=%s jobs=%+v", u, jobs)
	}
}

func TestV2TypedErrors(t *testing.T) {
	srv, clk := newServerWith(t, 10000, Options{MaxJobsPerUser: 1})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	expect := func(resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != status || e.Code != code {
			t.Fatalf("got %d/%q (%s), want %d/%q", resp.StatusCode, e.Code, e.Error, status, code)
		}
	}

	// Unknown job: not_found on poll, cancel, and events.
	resp, _ := http.Get(ts.URL + "/v2/programs/job-999999")
	expect(resp, http.StatusNotFound, CodeNotFound)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/programs/job-999999", nil)
	resp, _ = http.DefaultClient.Do(req)
	expect(resp, http.StatusNotFound, CodeNotFound)
	resp, _ = http.Get(ts.URL + "/v2/programs/job-999999/events")
	expect(resp, http.StatusNotFound, CodeNotFound)

	// Non-object bodies are rejected with a clear validation error.
	resp, _ = http.Post(ts.URL+"/v2/programs", "application/json", strings.NewReader(`[1,2,3]`))
	expect(resp, http.StatusBadRequest, CodeValidation)
	resp, _ = http.Post(ts.URL+"/v1/programs", "application/json", strings.NewReader(`"a string"`))
	expect(resp, http.StatusBadRequest, CodeValidation)
	// A step on a session an earlier step removed fails validation, not
	// the run.
	resp, _ = http.Post(ts.URL+"/v2/programs", "application/json", strings.NewReader(
		`{"steps":[{"op":"anon","s":"a"},{"op":"remove","s":"a"},{"op":"prefill","s":"a","text":"hi"}]}`))
	expect(resp, http.StatusBadRequest, CodeValidation)
	// Anything after the script object but whitespace fails validation.
	resp, _ = http.Post(ts.URL+"/v2/programs", "application/json", strings.NewReader(
		`{"steps":[{"op":"emit","text":"x"}]} garbage`))
	expect(resp, http.StatusBadRequest, CodeValidation)

	// Bodies over the cap: payload_too_large.
	big := `{"steps":[{"op":"emit","text":"` + strings.Repeat("x", maxBodyBytes) + `"}]}`
	resp, _ = http.Post(ts.URL+"/v2/programs", "application/json", strings.NewReader(big))
	expect(resp, http.StatusRequestEntityTooLarge, CodePayloadTooLarge)

	// Wrong methods: method_not_allowed everywhere, including /healthz
	// and /v1/stats.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v2/programs/job-1", nil)
	resp, _ = http.DefaultClient.Do(req)
	expect(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	resp, _ = http.Post(ts.URL+"/healthz", "text/plain", nil)
	expect(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
	resp, _ = http.Post(ts.URL+"/v1/stats", "text/plain", nil)
	expect(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
}

func TestV2JobQuotaPerTenant(t *testing.T) {
	srv, clk := newServerWith(t, 500, Options{MaxJobsPerUser: 1})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := submitV2(t, ts, "carol", longGenScript)

	// Same tenant, second live job: quota_exhausted.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/programs", strings.NewReader(shortScript))
	req.Header.Set("X-Symphony-User", "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeQuota {
		t.Fatalf("quota: got %d/%q", resp.StatusCode, e.Code)
	}

	// A different tenant is unaffected.
	other := submitV2(t, ts, "dave", shortScript)
	waitTerminal(t, ts, other.JobID)

	// Cancelling carol's job frees her slot.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/programs/"+first.JobID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	waitTerminal(t, ts, first.JobID)
	again := submitV2(t, ts, "carol", shortScript)
	waitTerminal(t, ts, again.JobID)
}

func TestV1ClientDisconnectCancelsProcess(t *testing.T) {
	srv, clk := newServerWith(t, 500, Options{})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fire a long synchronous v1 request and abandon it mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/programs", strings.NewReader(longGenScript))
	req.Header.Set("X-Symphony-User", "erin")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let generation start
	cancel()
	if err := <-errCh; err == nil {
		t.Fatalf("abandoned request unexpectedly succeeded")
	}

	// The v1 request ran through the shared job layer: find erin's job and
	// confirm the kernel process terminated as cancelled, not abandoned.
	resp, err := http.Get(ts.URL + "/v2/programs?user=erin")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Jobs []jobResponse `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if len(out.Jobs) != 1 {
		t.Fatalf("expected erin's abandoned job in the registry, got %+v", out.Jobs)
	}
	final := waitTerminal(t, ts, out.Jobs[0].JobID)
	if final.Status != core.StatusCancelled {
		t.Fatalf("abandoned v1 job status = %s, want cancelled", final.Status)
	}
}

func TestV2RetentionGC(t *testing.T) {
	// Finished jobs are retained for a window of *virtual* time; a later
	// job's execution advances the clock past the window and the sweep
	// drops the old job.
	srv, clk := newServerWith(t, 10000, Options{Retention: time.Millisecond})
	defer clk.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	old := submitV2(t, ts, "alice", shortScript)
	waitTerminal(t, ts, old.JobID)

	// Burn >1ms of virtual time with a second job.
	next := submitV2(t, ts, "alice", shortScript)
	waitTerminal(t, ts, next.JobID)

	code, _ := pollV2(t, ts, old.JobID)
	if code != http.StatusNotFound {
		t.Fatalf("expired job still pollable: %d", code)
	}
	code, _ = pollV2(t, ts, next.JobID)
	if code != http.StatusOK {
		t.Fatalf("fresh job swept early: %d", code)
	}
}
