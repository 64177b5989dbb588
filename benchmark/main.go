// Command benchmark is the repository's benchmark: four program-serving
// workloads, three on the kernel's virtual clock and one against a spawned
// symphonyd on the wall clock, gated end to end and read layer by layer.
// See README.md in this directory.
//
//	go run ./benchmark -workload prefix_share -seed 1 -seconds 20 -trace 0
//	go run ./benchmark                # every workload, each in a child process
//	go run ./benchmark -trace 1       # ... and each workload's traced run
//	go run ./benchmark -selfcheck     # the untraced suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxReps bounds the repetitions of a kernel workload's primary
// configuration; at least two always run, so determinism is checked.
const (
	minReps = 2
	maxReps = 16
	// setupSamples is how many times a kernel workload's set-up is timed.
	setupSamples = 7
)

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed; 1 is the seed the stored output digests belong to, 7 is held out")
	seconds := flag.Float64("seconds", runSeconds, "how long one untraced run measures")
	traced := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics and writing "+outDir+"/trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and fail unless the two agree within each metric's bound")
	jsonOut := flag.String("json", "", "also write the result(s) to this file")
	printSpec := flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric lists in this package define it")
	flag.Parse()

	switch {
	case *printSpec:
		out, _ := json.MarshalIndent(benchmarkJSON(), "", "  ")
		fmt.Println(string(out))
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds))
	case *workload == "":
		results, ok := runSuite(*seed, *seconds, *traced == 1, "suite")
		if *jsonOut != "" {
			writeJSON(*jsonOut, results)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		res, err := runWorkload(*workload, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		res.print()
		if *jsonOut != "" {
			writeJSON(*jsonOut, res)
		}
		fmt.Println(res.driverLine())
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing", path+":", err)
		os.Exit(2)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	// One thread of Go code at a time, here and in the spawned daemon, all on
	// one CPU. The simulator runs one actor at a time anyway; a second
	// processor adds only cross-core wake-ups and a concurrent collector, and
	// on a box of two shared cores those measure the host's scheduler, not
	// the program. And each core of that box changes its speed on its own, so
	// the reference computation (ref.go) must run where the measured code does.
	runtime.GOMAXPROCS(1)
	pinned := "unpinned"
	if cpu, err := pinToOneCPU(); err == nil {
		pinned = fmt.Sprintf("pinned to CPU %d", cpu)
	} else {
		fmt.Println("not pinned to one CPU:", err)
	}
	fmt.Printf("workload %s seed %d trace %v seconds %g GOMAXPROCS %d %s\n", name, seed, traced, seconds, runtime.GOMAXPROCS(0), pinned)
	if name == "daemon_http" {
		if traced {
			return daemonTraced(seed, seconds)
		}
		return daemonUntraced(seed, seconds)
	}
	for _, spec := range kernelSpecs {
		if spec.name == name {
			if traced {
				return kernelTraced(spec, seed)
			}
			return kernelUntraced(spec, seed, seconds), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func primaryRate(spec *kernelSpec) float64 {
	if !spec.openLoop {
		return 0
	}
	return spec.rates[spec.primary].Rate
}

// tally adds a kernel run's requests to the result's attempted/failed.
func (r *result) tally(run *kernelRun) {
	c := countKernel(run)
	r.Attempted += c.sent + c.refused
	r.Failed += c.failed + c.refused
	if run.timedOut {
		r.fail(fmt.Sprintf("%s: the host-time watchdog (%v) fired; unfinished requests were recorded as failed", run.spec.name, run.spec.watchdog))
	}
	for i := range run.results {
		if x := &run.results[i]; !x.refused && !x.ok() && len(r.Problems) < 8 {
			r.Problems = append(r.Problems, fmt.Sprintf("%s: request %d: %s: %s", run.spec.name, i, x.status, x.errText))
		}
	}
}

// kernelUntraced repeats the primary configuration back to back, a fresh
// kernel each time, for about `seconds` of host time.
func kernelUntraced(spec *kernelSpec, seed int64, seconds float64) *result {
	res := newResult(spec.name, seed, false)
	var reps []*kernelRun
	start := time.Now()
	for len(reps) < maxReps {
		if n := len(reps); n >= minReps {
			// Stop when the next repetition would end past the budget.
			per := time.Since(start).Seconds() / float64(n)
			if time.Since(start).Seconds()+per > seconds {
				break
			}
		}
		run := runKernel(spec, seed, primaryRate(spec), spec.requests, false, false)
		reps = append(reps, run)
		res.tally(run)
		if run.timedOut {
			break
		}
	}
	first := reps[0].virtualDigest()
	for i, run := range reps[1:] {
		if run.virtualDigest() != first {
			res.fail(fmt.Sprintf("%s: repetition %d disagrees with repetition 0 on the virtual clock: equal seeds must give bit-identical virtual results", spec.name, i+1))
		}
	}
	res.fail(checkKernelRun(reps[0], seed)...)
	res.Info["output_digest"] = reps[0].outputDigest()
	res.Info["virtual_digest"] = first
	res.fail(checkDigest(spec.name, seed, res.Info["output_digest"])...)
	// Set-up is short and one slow moment of the machine distorts it, so
	// it is sampled more often than the repetitions alone would.
	var setup []float64
	for _, run := range reps {
		setup = append(setup, run.setupSeconds())
	}
	for len(setup) < setupSamples {
		setup = append(setup, runKernel(spec, seed, primaryRate(spec), spec.requests, false, true).setupSeconds())
	}
	kernelEndToEnd(res, reps, setup)
	return res
}

// kernelTraced makes the per-layer reading: an untraced run at the primary
// rate for the counts, a traced run at a third of the size for the spans
// and the tracing overhead, the other rungs of the SLO ladder, and the
// unit costs.
func kernelTraced(spec *kernelSpec, seed int64) (*result, error) {
	res := newResult(spec.name, seed, true)
	base := runKernel(spec, seed, primaryRate(spec), spec.requests, false, false)
	res.tally(base)
	res.fail(checkKernelRun(base, seed)...)
	traced := runKernel(spec, seed, primaryRate(spec), spec.requests/3, true, false)
	res.tally(traced)

	var rungs []rung
	for i, r := range spec.rates {
		run := base
		if i != spec.primary {
			run = runKernel(spec, seed, r.Rate, spec.requests, false, false)
			// An overloaded rung is allowed to refuse and fail requests:
			// that is what it is there to show.
			res.Attempted += len(run.results)
		}
		rungs = append(rungs, rungOf(run, r.Name))
	}
	spans := kernelSpans(traced)
	kernelLayers(res, base, traced, len(spans), rungs)
	if err := unitCosts(base.results[0].req.body, res.Metrics); err != nil {
		return nil, err
	}
	ns := nest(spans)
	path, err := writeTrace(spec.name, ns)
	if err != nil {
		return nil, err
	}
	res.Info["trace_file"] = path
	res.selfTimes(ns)
	return res, nil
}

func daemonUntraced(seed int64, seconds float64) (*result, error) {
	res := newResult("daemon_http", seed, false)
	run, err := runDaemon(seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	res.tallyDaemon(run)
	res.fail(checkDaemonRun(run, seed)...)
	res.Info["output_digest"] = daemonDigest(run)
	res.fail(checkDigest("daemon_http", seed, res.Info["output_digest"])...)
	res.Info["build_s"] = fmt.Sprintf("%.3f", run.buildWall.Seconds())
	daemonEndToEnd(res, run)
	return res, nil
}

// daemonTraced runs half the time without and half with the client's spans
// on, each against a daemon of its own.
func daemonTraced(seed int64, seconds float64) (*result, error) {
	res := newResult("daemon_http", seed, true)
	plain, err := runDaemon(seed, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	res.tallyDaemon(plain)
	res.fail(checkDaemonRun(plain, seed)...)
	spans := newSpanLog()
	traced, err := runDaemon(seed, seconds/2, spans)
	if err != nil {
		return nil, err
	}
	res.tallyDaemon(traced)
	for _, r := range traced.all() {
		if r.ok() && r.idx >= 0 {
			spans.add(span{Req: r.client<<20 | r.idx, Name: "request", Layer: "gen", Start: r.start.Sub(spans.epoch), Dur: r.final + r.poll + r.stats})
		}
	}
	daemonLayers(res, plain, traced, len(spans.spans))
	if err := unitCosts(genDaemonRequest(seed, 0, 0).body, res.Metrics); err != nil {
		return nil, err
	}
	ns := nest(spans.spans)
	path, err := writeTrace("daemon_http", ns)
	if err != nil {
		return nil, err
	}
	res.Info["trace_file"] = path
	res.selfTimes(ns)
	return res, nil
}

func (r *result) tallyDaemon(run *daemonRun) {
	for _, x := range run.all() {
		r.Attempted++
		if !x.ok() {
			r.Failed++
			if len(r.Problems) < 8 {
				r.Problems = append(r.Problems, fmt.Sprintf("daemon_http: client %d request %d: %s", x.client, x.idx, x.err))
			}
		}
	}
}

// selfTimes notes each span kind's summed self time for the printout.
func (r *result) selfTimes(ns []nested) {
	for name, d := range selfTimes(ns) {
		r.Info["self_ms."+name] = fmt.Sprintf("%.3f", ms(d))
	}
}

// defsFor returns the metric list an invocation reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit, then the checks.
func (r *result) print() {
	kind := "end_to_end"
	if r.Trace {
		kind = "per_layer"
	}
	for _, d := range defsFor(r.Trace) {
		line := fmt.Sprintf("%s %-34s = %14.6g %-6s", kind, d.Name, r.Metrics[d.Name], d.Unit)
		if note := r.notes[d.Name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(line)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info %s = %s\n", k, r.Info[k])
	}
	fmt.Printf("requests attempted %d failed %d fail_share %.6f\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, p := range r.Problems {
		fmt.Println("PROBLEM", p)
	}
	fmt.Printf("checks %s\n", map[bool]string{true: "passed", false: "FAILED"}[r.Correct])
}

// driverLine is the one JSON object the benchmark contract asks for as the
// last line of standard output.
func (r *result) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Trace) {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(out) // plain numbers and strings always marshal
	return string(line)
}

// runSuite runs every workload in a child process of this binary, so that
// heap, RSS and GC state do not leak from one workload into the next.
func runSuite(seed int64, seconds float64, alsoTraced bool, tag string) ([]*result, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	var results []*result
	ok := true
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			if traced == 1 && !alsoTraced {
				continue
			}
			file := filepath.Join(outDir, fmt.Sprintf("%s-%s-trace%d.json", tag, w.Name, traced))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-json", file)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.Name, traced, err)
				ok = false
			}
			var res result
			if data, err := os.ReadFile(file); err == nil && json.Unmarshal(data, &res) == nil {
				results = append(results, &res)
			} else {
				ok = false
			}
		}
	}
	return results, ok
}

// allocsTolerance is how far allocs_per_req may differ between two runs of
// the same code.
const allocsTolerance = 0.005

// runSelfcheck runs the untraced suite twice and compares.
func runSelfcheck(seed int64, seconds float64) int {
	first, ok1 := runSuite(seed, seconds, false, "selfcheck1")
	second, ok2 := runSuite(seed, seconds, false, "selfcheck2")
	bad := 0
	complain := func(format string, args ...any) {
		bad++
		fmt.Printf("SELFCHECK "+format+"\n", args...)
	}
	if !ok1 || !ok2 || len(first) != len(second) {
		complain("a suite run failed")
		return 1
	}
	for i, a := range first {
		b := second[i]
		// A kernel workload's virtual clock repeats exactly for a seed; the
		// daemon's is paced by the wall clock and does not.
		virtual := a.Workload != "daemon_http"
		if virtual && a.Info["virtual_digest"] != b.Info["virtual_digest"] {
			complain("%s: virtual results differ between the two runs", a.Workload)
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = (x - y) / x
			}
			switch {
			case virtual && strings.HasPrefix(d.Name, "v_") && x != y:
				complain("%s %s: %v then %v, must be identical", a.Workload, d.Name, x, y)
			case worse > d.Bound:
				complain("%s %s: %v then %v, worse by %.1f%% (bound %.0f%%)", a.Workload, d.Name, x, y, worse*100, d.Bound*100)
			}
		}
		if virtual {
			var x, y float64
			fmt.Sscan(a.Info["allocs_per_req"], &x)
			fmt.Sscan(b.Info["allocs_per_req"], &y)
			if math.Abs(y-x) > allocsTolerance*x {
				complain("%s allocs_per_req: %v then %v, apart by more than %.1f%%", a.Workload, x, y, allocsTolerance*100)
			}
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("SELFCHECK passed: the two runs agree")
	return 0
}
