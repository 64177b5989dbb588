package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/lipscript"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile of the ladder with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.50}, {19, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailPct != 0.99 {
		t.Fatalf("summarize: n=%d tail=%v", s.N, s.TailPct)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("summarize: p50=%v tail=%v, want 500.5 and 990.01", s.P50, s.Tail)
	}
	if xs[0] != 1000 {
		t.Error("summarize sorted its argument in place")
	}
	if got := summarize(nil); got.P50 != 0 || got.Tail != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestSLOShareCountsFailuresAsMisses(t *testing.T) {
	l := sloLimits{TTFTms: 100, TPOTms: 10}
	reqs := []outcome{
		{OK: true, TTFTms: 50, TPOTms: 5},
		{OK: true, TTFTms: 100, TPOTms: 10},  // on the limit meets it
		{OK: true, TTFTms: 101, TPOTms: 5},   // TTFT over
		{OK: true, TTFTms: 50, TPOTms: 10.5}, // TPOT over
		{OK: false},                          // refused, failed or timed out
	}
	if got := sloShare(reqs, l); got != 0.4 {
		t.Errorf("sloShare = %v, want 0.4", got)
	}
	if got := sloShare(nil, l); got != 0 {
		t.Errorf("sloShare of nothing = %v, want 0", got)
	}
}

func TestBacklogRatio(t *testing.T) {
	steady := make([]int, 200)
	growing := make([]int, 200)
	for i := range steady {
		steady[i] = 4 + i%3
		growing[i] = 2 + i*i/400
	}
	if r := backlogRatio(steady); r > 1.2 || r < 0.8 {
		t.Errorf("steady queue: backlog ratio %v, want about 1", r)
	}
	if r := backlogRatio(growing); r <= backlogLimit {
		t.Errorf("growing queue: backlog ratio %v, want above %v", r, backlogLimit)
	}
	// A few requests in flight at the end of an otherwise idle run is not
	// a backlog: an idle midpoint counts as one request.
	quiet := make([]int, 200)
	for i := 180; i < 200; i++ {
		quiet[i] = 2
	}
	if r := backlogRatio(quiet); r > backlogLimit {
		t.Errorf("quiet run: backlog ratio %v, want at most %v", r, backlogLimit)
	}
}

func TestSLORateIsHighestPassingRung(t *testing.T) {
	rungs := []rung{
		{Name: "lo", Rate: 2, Share: 1, Backlog: 1},
		{Name: "mid", Rate: 4, Share: 0.995, Backlog: 1.9},
		{Name: "hi", Rate: 6, Share: 0.97, Backlog: 1},
	}
	if got := sloRate(rungs); got != 4 {
		t.Errorf("sloRate = %v, want 4", got)
	}
	rungs[1].Backlog = 2.5 // meets the latency limits on a growing queue
	if got := sloRate(rungs); got != 2 {
		t.Errorf("sloRate with a growing mid rung = %v, want 2", got)
	}
	if got := sloRate([]rung{{Rate: 2, Share: 0.5}}); got != 0 {
		t.Errorf("sloRate with no passing rung = %v, want 0", got)
	}
}

// recordedStream is a v2 event stream as symphonyd writes it, with a gap
// frame (no id), a comment and a two-line data field added.
const recordedStream = "event: gap\ndata: {\"missed_from\":1,\"missed_to\":3}\n\n" +
	": keep-alive\n" +
	"id: 4\nevent: status\ndata: {\"seq\":4,\"at_ns\":1500000,\"pid\":7,\"kind\":\"status\",\"status\":\"running\"}\n\n" +
	"id: 5\nevent: token\ndata: {\"seq\":5,\"at_ns\":57840000,\"pid\":7,\"kind\":\"token\",\"text\":\"rilo \"}\n\n" +
	"id: 6\r\nevent: emit\r\ndata: line one\r\ndata: line two\r\n\r\n" +
	"id: 7\nevent: status\ndata: {\"seq\":7,\"at_ns\":99000000,\"pid\":7,\"kind\":\"status\",\"status\":\"done\",\"final\":true}\n\n"

func TestReadSSE(t *testing.T) {
	r := bufio.NewReader(strings.NewReader(recordedStream))
	want := []sseFrame{
		{Event: "gap", Data: `{"missed_from":1,"missed_to":3}`},
		{ID: "4", Event: "status", Data: `{"seq":4,"at_ns":1500000,"pid":7,"kind":"status","status":"running"}`},
		{ID: "5", Event: "token", Data: `{"seq":5,"at_ns":57840000,"pid":7,"kind":"token","text":"rilo "}`},
		{ID: "6", Event: "emit", Data: "line one\nline two"},
		{ID: "7", Event: "status", Data: `{"seq":7,"at_ns":99000000,"pid":7,"kind":"status","status":"done","final":true}`},
	}
	for i, w := range want {
		got, err := readSSE(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != w {
			t.Errorf("frame %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := readSSE(r); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
	// A stream cut in the middle of a frame is not a clean end.
	cut := bufio.NewReader(strings.NewReader("id: 1\nevent: token\n"))
	if _, err := readSSE(cut); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if at := frameAt(want[2].Data); at != 57840*time.Microsecond {
		t.Errorf("frameAt = %v, want 57.84ms", at)
	}
	if at := frameAt(`{"seq":1}`); at != 0 {
		t.Errorf("frameAt without at_ns = %v, want 0", at)
	}
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	gens := map[string]func(int64, int, float64) []request{
		"prefix_share": genPrefixShare, "mixed_lanes": genMixedLanes, "kv_pressure": genKVPressure,
	}
	for name, gen := range gens {
		a, b, c := gen(3, 50, 4), gen(3, 50, 4), gen(4, 50, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different inputs", name)
		}
		if reflect.DeepEqual(bodies(a), bodies(c)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	if !bytes.Equal(genDaemonRequest(3, 1, 9).body, genDaemonRequest(3, 1, 9).body) {
		t.Error("daemon_http: equal (seed, client, idx) gave different requests")
	}
	for _, other := range []request{genDaemonRequest(4, 1, 9), genDaemonRequest(3, 0, 9), genDaemonRequest(3, 1, 8)} {
		if bytes.Equal(genDaemonRequest(3, 1, 9).body, other.body) {
			t.Error("daemon_http: different (seed, client, idx) gave the same request")
		}
	}
}

// promptTokens sums the tokens of every literal prefill of a script.
func promptTokens(t *testing.T, body []byte) int {
	t.Helper()
	s, err := lipscript.Parse(body)
	if err != nil {
		t.Fatalf("generated script does not parse: %v", err)
	}
	tok := newTokenizer()
	n := 0
	for _, st := range s.Steps {
		if st.Op == lipscript.OpPrefill && !strings.Contains(st.Text, "${") {
			n += len(tok.Encode(st.Text))
		}
	}
	return n
}

func TestGeneratedShapes(t *testing.T) {
	tok := newTokenizer()
	vocab := tok.Vocab().Size()

	for _, r := range genPrefixShare(1, 40, 4) {
		if n := promptTokens(t, r.body); n != r.prompt || n < prefixPreamble+prefixUniqueMin || n > prefixPreamble+prefixUniqueMax {
			t.Fatalf("prefix_share request %d: %d prompt tokens, recorded %d", r.idx, n, r.prompt)
		}
	}
	batch := 0
	opening := map[string]bool{}
	mixed := genMixedLanes(1, 500, 3)
	for _, r := range mixed {
		if n := promptTokens(t, r.body); n != r.prompt {
			t.Fatalf("mixed_lanes request %d: %d prompt tokens, recorded %d", r.idx, n, r.prompt)
		}
		if r.lane == "batch" {
			batch++
		}
		s, _ := lipscript.Parse(r.body)
		first := strings.Join(strings.Fields(promptOf(s))[:4], " ")
		if opening[first] {
			t.Fatalf("mixed_lanes request %d opens like an earlier one: the prefix cache could match", r.idx)
		}
		opening[first] = true
	}
	if batch*5 != len(mixed) {
		t.Errorf("mixed_lanes: %d batch requests of %d, want exactly one in five", batch, len(mixed))
	}
	for _, r := range genKVPressure(1, 8, 0) {
		if n := promptTokens(t, r.body); n != kvOpenPrefill+kvTurns*kvTurnPrefill {
			t.Fatalf("kv_pressure session %d: %d prompt tokens", r.idx, n)
		}
	}
	d := genDaemonRequest(1, 0, 0)
	for i := 0; i < 40; i++ {
		r := genDaemonRequest(1, 1, i)
		if n := promptTokens(t, r.body); n < daemonPrefillMin || n > daemonPrefillMax || r.prompt-n < daemonObsMin || r.prompt-n > daemonObsMax {
			t.Fatalf("daemon_http request %d: %d literal prompt tokens of %d recorded", i, n, r.prompt)
		}
	}
	// Every word comes from the dictionary: encoding the inputs must not
	// have grown the vocabulary, or outputs would depend on arrival order.
	for _, body := range [][]byte{mixed[0].body, d.body, vocabRequest()} {
		s, err := lipscript.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range s.Steps {
			if st.Op == lipscript.OpPrefill { // the only text the kernel tokenizes
				tok.Encode(strings.ReplaceAll(st.Text, "${obs}", "results for w0007 w0008"))
			}
		}
	}
	if tok.Vocab().Size() != vocab {
		t.Errorf("the generated inputs grew the vocabulary from %d to %d tokens", vocab, tok.Vocab().Size())
	}
}

func TestNestSelfTime(t *testing.T) {
	msec := time.Millisecond
	ns := nest([]span{
		{Req: 1, Name: "request", Start: 0, Dur: 100 * msec},
		{Req: 1, Name: "process", Start: 0, Dur: 90 * msec},
		{Req: 1, Name: "pred", Start: 10 * msec, Dur: 30 * msec},
		{Req: 1, Name: "restore", Start: 15 * msec, Dur: 5 * msec},
		{Req: 1, Name: "tool", Start: 50 * msec, Dur: 20 * msec},
		{Req: 2, Name: "request", Start: 5 * msec, Dur: 10 * msec},
	})
	self := map[string]time.Duration{}
	depth := map[string]int{}
	for _, n := range ns {
		if n.Req == 1 {
			self[n.Name], depth[n.Name] = n.Self, n.Depth
		}
	}
	want := map[string]time.Duration{"request": 10 * msec, "process": 40 * msec, "pred": 25 * msec, "restore": 5 * msec, "tool": 20 * msec}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if depth["request"] != 0 || depth["process"] != 1 || depth["pred"] != 2 || depth["restore"] != 3 || depth["tool"] != 2 {
		t.Errorf("depths = %v", depth)
	}
}

// TestReferenceSeconds pins the arithmetic of reference seconds and the two
// properties the reference computation is relied on for: it repeats, and it
// leaves the allocator and the collector alone.
func TestReferenceSeconds(t *testing.T) {
	// Two timings, one at the nominal speed and one stretched to a third of
	// it, add up to half the nominal speed: 0.2 s for what should take 0.1 s.
	m := &refMeter{total: refTiming{units: refNominal / 20, took: 50 * time.Millisecond}.plus(
		refTiming{units: refNominal / 20, took: 150 * time.Millisecond})}
	if got := m.timing().factor(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor = %v, want 0.5", got)
	}
	// 1.2 s of wall time, 0.2 s of it the timings' own: 1 s at half the
	// nominal speed is half a reference second.
	if got := m.refSeconds(1200 * time.Millisecond); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("refSeconds = %v, want 0.5", got)
	}
	sl := daemonSliceRate{ok: 100, dur: 500 * time.Millisecond, ref: refTiming{units: refNominal / 200, took: 10 * time.Millisecond}}
	if w, r := sl.perWallSecond(), sl.perRefSecond(); w != 200 || math.Abs(r-400) > 1e-9 {
		t.Errorf("a slice of 100 requests in 0.5 s at half speed: %v per wall second, %v per reference second, want 200 and 400", w, r)
	}

	a, b := newRefWork(), newRefWork()
	for i := 0; i < 100; i++ {
		a.unit()
		b.unit()
	}
	if a.sink != b.sink || a.rng != b.rng {
		t.Error("two runs of the reference computation differ")
	}
	if n := testing.AllocsPerRun(100, a.unit); n != 0 {
		t.Errorf("a reference unit allocates %v times, want 0", n)
	}
	if tm := a.time(time.Millisecond); tm.units <= 0 || tm.took < time.Millisecond {
		t.Errorf("time(1ms) = %+v", tm)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json equal to the metric and workload
// lists of this package, and the lists inside the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the lists in metrics.go; regenerate it with\n\tgo run ./benchmark -print-benchmark-json > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestReportedNamesAreDeclared exercises the reporting helpers on empty runs:
// they may write only names metrics.go declares, and together they must
// write every end-to-end name.
func TestReportedNamesAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[m.Name] = true
	}
	res := newResult("prefix_share", 1, true)
	base := newKernelRun(&prefixShare, 0)
	kernelLayers(res, base, newKernelRun(&prefixShare, 0), 0, prefixShare.rates)
	if err := unitCosts(genDaemonRequest(1, 0, 0).body, res.Metrics); err != nil {
		t.Fatal(err)
	}
	daemon := &daemonRun{segs: []daemonSegment{{}}}
	daemonLayers(res, daemon, daemon, 0)
	e2e := newResult("daemon_http", 1, false)
	daemonEndToEnd(e2e, daemon)
	kernelEndToEnd(e2e, []*kernelRun{base}, nil)
	for _, r := range []*result{res, e2e} {
		for name := range r.Metrics {
			if !declared[name] {
				t.Errorf("metric %q is reported but not declared in metrics.go", name)
			}
		}
	}
	for _, m := range endToEnd {
		if _, ok := e2e.Metrics[m.Name]; !ok {
			t.Errorf("end-to-end metric %q is declared but never reported", m.Name)
		}
	}
}
