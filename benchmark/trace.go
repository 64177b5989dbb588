package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one interval on a request's timeline: the virtual timeline for
// kernel workloads, the wall clock for daemon_http. Spans of one request
// share Req; a span's parent is the smallest span of the same request that
// encloses it.
type span struct {
	Req   int
	Name  string
	Layer string // the package the time is spent in, or "gen" for the benchmark's own view
	Start time.Duration
	Dur   time.Duration
}

// spanLog keeps a traced run's spans in memory until the run is over.
type spanLog struct {
	epoch time.Time // wall-clock zero for daemon_http spans
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// kernelSpans rebuilds a traced kernel run's spans: the benchmark's own
// view of each request (submit, first_token, stream, final) and, under it,
// the spans the kernel's tracer recorded for the request's process.
func kernelSpans(run *kernelRun) []span {
	var out []span
	byPID := make(map[int]int, len(run.results))
	for i := range run.results {
		r := &run.results[i]
		if r.refused || r.final == 0 {
			continue
		}
		byPID[r.pid] = i
		out = append(out, span{Req: i, Name: "request", Layer: "gen", Start: r.due, Dur: r.final - r.due})
		out = append(out, span{Req: i, Name: "submit", Layer: "gen", Start: r.due, Dur: r.sent - r.due})
		if r.tokens > 0 {
			out = append(out,
				span{Req: i, Name: "first_token", Layer: "gen", Start: r.sent, Dur: r.first - r.sent},
				span{Req: i, Name: "stream", Layer: "gen", Start: r.first, Dur: r.last - r.first},
				span{Req: i, Name: "final", Layer: "gen", Start: r.last, Dur: r.final - r.last})
		}
	}
	for _, e := range run.tracer.Events() {
		if i, ok := byPID[e.PID]; ok {
			out = append(out, span{Req: i, Name: string(e.Kind), Layer: traceLayer(e.Kind), Start: e.At, Dur: e.Dur})
		}
	}
	return out
}

// traceLayer names the package a kernel span's time is spent in.
func traceLayer(k trace.Kind) string {
	switch k {
	case trace.KindPred:
		return "sched"
	case trace.KindRestore:
		return "kvd"
	case trace.KindLock:
		return "kvfs"
	default: // process, tool, migrate
		return "core"
	}
}

// nested is a span with its depth and self time worked out.
type nested struct {
	span
	Depth int
	Self  time.Duration
}

// nest orders each request's spans by containment and computes self time:
// a span's duration minus the part of it its direct children cover.
func nest(spans []span) []nested {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur
	})
	out := make([]nested, len(sorted))
	var stack []int // indices into out of the open enclosing spans
	covered := make([]time.Duration, len(sorted))
	coveredTo := make([]time.Duration, len(sorted)) // end of the children counted so far
	for i, s := range sorted {
		for len(stack) > 0 {
			top := out[stack[len(stack)-1]]
			if top.Req == s.Req && s.Start >= top.Start && s.Start+s.Dur <= top.Start+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		out[i] = nested{span: s, Depth: len(stack)}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			// Siblings arrive in start order; count only what lies beyond
			// the siblings already counted, so overlaps are not counted twice.
			from := s.Start
			if coveredTo[p] > from {
				from = coveredTo[p]
			}
			if end := s.Start + s.Dur; end > from {
				covered[p] += end - from
				coveredTo[p] = end
			}
		}
		coveredTo[i] = s.Start
		stack = append(stack, i)
	}
	for i := range out {
		out[i].Self = out[i].Dur - covered[i]
	}
	return out
}

// selfTimes sums self time by layer and span name.
func selfTimes(ns []nested) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, n := range ns {
		out[n.Layer+"."+n.Name] += n.Self
	}
	return out
}

// chromeEvent is the trace-event JSON schema ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"` // the request id
	TID  int            `json:"tid"` // nesting depth
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one row group per request, one row per nesting depth.
func writeTrace(workload string, ns []nested) (string, error) {
	evs := make([]chromeEvent, len(ns))
	for i, n := range ns {
		evs[i] = chromeEvent{
			Name: n.Name, Cat: n.Layer, Ph: "X",
			Ts:  float64(n.Start) / float64(time.Microsecond),
			Dur: float64(n.Dur) / float64(time.Microsecond),
			PID: n.Req, TID: n.Depth,
			Args: map[string]any{"req": n.Req, "self_us": float64(n.Self) / float64(time.Microsecond)},
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(evs)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
