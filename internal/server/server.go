// Package server exposes a Symphony kernel over HTTP: the deployment
// shape of the paper's Figure 1 (bottom), where users ship programs to
// the serving system instead of prompts.
//
// The v2 surface is job-oriented and streaming-first (see v2.go):
// submission returns immediately with a job ID, progress streams as
// Server-Sent Events, and DELETE cancels. The v1 endpoints survive as
// thin synchronous wrappers over the same job layer:
//
//	POST /v1/programs     body: lipscript JSON       -> program output + accounting
//	POST /v1/completions  body: {prompt,max_tokens}  -> legacy prompt API
//	GET  /v1/stats                                    -> kernel counters
//	GET  /healthz                                     -> liveness
//
// The completions endpoint is implemented by compiling the request into a
// three-statement lipscript — under a program-serving architecture, a
// prompt is just a degenerate program. The kernel runs on a realtime-paced
// simulation clock, so latencies observed over HTTP reflect the cost
// model. Errors leave every endpoint with a stable machine-readable code
// (see errors.go).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// Options tune the server's job layer and request limits. The zero value
// selects defaults.
type Options struct {
	// MaxJobsPerUser caps a tenant's concurrently live jobs (default 32).
	MaxJobsPerUser int
	// Retention is how long finished jobs stay pollable, in virtual time
	// (default 10m).
	Retention time.Duration
	// DefaultPriority is the scheduling lane for submissions that carry
	// no "priority" field ("interactive", "normal", or "batch"; default
	// normal). Invalid names panic at construction.
	DefaultPriority string
	// TenantPriority overrides DefaultPriority per tenant — the knob that
	// defaults a known offline tenant's jobs into the batch lane without
	// every request saying so. An explicit "priority" on a request still
	// wins.
	TenantPriority map[string]string
}

// maxBodyBytes caps POST bodies.
const maxBodyBytes = 1 << 20

// Server is the HTTP front-end.
type Server struct {
	clk  *simclock.Clock
	k    *core.Kernel
	mux  *http.ServeMux
	jobs *jobRegistry
}

// NewWith wraps a kernel; the zero Options select the defaults. The
// kernel's clock must be realtime-paced (simclock.NewRealtime) for HTTP
// callers to observe meaningful timing.
func NewWith(clk *simclock.Clock, k *core.Kernel, o Options) *Server {
	s := &Server{
		clk:  clk,
		k:    k,
		mux:  http.NewServeMux(),
		jobs: newJobRegistry(clk, k, o),
	}
	s.mux.HandleFunc("/healthz", s.health)
	s.mux.HandleFunc("/v1/stats", s.stats)
	s.mux.HandleFunc("/v1/programs", s.programs)
	s.mux.HandleFunc("/v1/completions", s.completions)
	s.mux.HandleFunc("/v2/programs", s.v2Collection)
	s.mux.HandleFunc("/v2/programs/{id}", s.v2Job)
	s.mux.HandleFunc("/v2/programs/{id}/events", s.v2EventsRoute)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// v2Collection dispatches /v2/programs by method.
func (s *Server) v2Collection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.v2Submit(w, r)
	case http.MethodGet:
		s.v2List(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST or GET required")
	}
}

func (s *Server) v2Job(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.v2Get(w, r)
	case http.MethodDelete:
		s.v2Cancel(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or DELETE required")
	}
}

func (s *Server) v2EventsRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	s.v2Events(w, r)
}

// waitJob parks the HTTP goroutine until the job's process exits,
// proxying through a clock actor. If the client disconnects first, the
// process is cancelled so abandoned requests stop burning simulated GPU
// time; the wait actor is then reclaimed by the cancelled process
// finishing (or clock shutdown), never leaked.
func (s *Server) waitJob(r *http.Request, j *Job) error {
	done := make(chan error, 1)
	s.clk.Go("http-wait", func() { done <- j.Proc.Wait() })
	select {
	case err := <-done:
		return err
	case <-r.Context().Done():
		j.Proc.Cancel()
		return <-done
	}
}

// readBody enforces the body byte cap and requires a JSON object,
// writing the typed error itself on failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Sprintf("body exceeds %d bytes", maxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, CodeValidation, "reading body: "+err.Error())
		}
		return nil, false
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		writeError(w, http.StatusBadRequest, CodeValidation, "request body must be a JSON object")
		return nil, false
	}
	return trimmed, true
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// stats serves the walked document plus the keys no Stats field holds.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	st := s.k.Stats()
	doc := walkStats(statsPlan, reflect.ValueOf(st), map[string]any{
		"gpus":         len(st.Sched.Replicas),
		"virtual_time": s.clk.Now().String(),
	})
	statsBlock(doc, "disk")["enabled"] = st.FS.DiskPageCap > 0
	spec := statsBlock(doc, "spec")
	spec["enabled"] = false
	if sc := s.k.SpecDecode(); sc != nil {
		spec["enabled"] = true
		spec["draft"] = sc.Draft
		spec["window"] = sched.DefaultSpecWindow
		if st.Sched.SpecDrafted > 0 {
			spec["accept_rate"] = float64(st.Sched.SpecAccepted) / float64(st.Sched.SpecDrafted)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// statsField is one served leaf or array of core.Stats. A field tagged
// `stats:"path[,unit]"` is served at path, dotted from its struct's block
// or, after a leading "/", from the document root. A struct field with an
// empty path is inlined into its block, one with a path opens that block,
// and a slice of structs is an array with one object per element, each
// walked as a document of its own. Unit "us", "ms" or "str" serves a
// time.Duration as integer µs, float ms or its String(); "-" is not
// served. docs/STATS.md lists every key.
type statsField struct {
	index []int        // reflect.Value.FieldByIndex from the walked struct
	keys  []string     // the key path from the walked document
	unit  string       // "", "us", "ms" or "str"
	sub   []statsField // a slice element's plan
}

// statsPlan is core.Stats' plan, built once.
var statsPlan = planStats(reflect.TypeOf(core.Stats{}), nil, nil)

// planStats flattens t's served fields, nested structs included; index
// and block are t's field index and key path in the walked struct.
func planStats(t reflect.Type, index []int, block []string) []statsField {
	var plan []statsField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("stats")
		if !ok || tag == "-" {
			continue
		}
		path, unit, _ := strings.Cut(tag, ",")
		idx, keys := append(slices.Clip(index), i), block
		if strings.HasPrefix(path, "/") {
			keys = nil
		}
		if path = strings.TrimPrefix(path, "/"); path != "" {
			keys = append(slices.Clip(keys), strings.Split(path, ".")...)
		}
		switch f.Type.Kind() {
		case reflect.Struct:
			plan = append(plan, planStats(f.Type, idx, keys)...)
		case reflect.Slice:
			plan = append(plan, statsField{index: idx, keys: keys, sub: planStats(f.Type.Elem(), nil, nil)})
		default:
			plan = append(plan, statsField{index: idx, keys: keys, unit: unit})
		}
	}
	return plan
}

// walkStats serves v's planned fields into doc and returns it.
func walkStats(plan []statsField, v reflect.Value, doc map[string]any) map[string]any {
	for _, f := range plan {
		m, last := doc, len(f.keys)-1
		for _, k := range f.keys[:last] {
			m = statsBlock(m, k)
		}
		m[f.keys[last]] = statsValue(v.FieldByIndex(f.index), f)
	}
	return doc
}

// statsBlock returns m's object at key, creating it on first use.
func statsBlock(m map[string]any, key string) map[string]any {
	b, ok := m[key].(map[string]any)
	if !ok {
		b = map[string]any{}
		m[key] = b
	}
	return b
}

// statsValue is one field as served. Numbers are boxed by kind because
// v.Interface() copies out of an addressable slice element.
func statsValue(v reflect.Value, f statsField) any {
	switch {
	case v.Kind() == reflect.Slice:
		elems := make([]map[string]any, v.Len())
		for i := range elems {
			elems[i] = walkStats(f.sub, v.Index(i), map[string]any{})
		}
		return elems
	case f.unit == "us":
		return time.Duration(v.Int()).Microseconds()
	case f.unit == "ms":
		return float64(v.Int()) / float64(time.Millisecond)
	case f.unit == "str":
		return time.Duration(v.Int()).String()
	case v.CanInt():
		return v.Int()
	case v.CanFloat():
		return v.Float()
	}
	return v.Interface()
}

// programResponse is the /v1/programs and /v1/completions reply.
type programResponse struct {
	Output      string `json:"output"`
	PID         int    `json:"pid"`
	JobID       string `json:"job_id"`
	PredTokens  int64  `json:"pred_tokens"`
	VirtualTime string `json:"virtual_time"`
	Error       string `json:"error,omitempty"`
	Code        string `json:"code,omitempty"`
}

// user resolves the requesting tenant (header-based; real deployments
// would authenticate).
func user(r *http.Request) string {
	if u := r.Header.Get("X-Symphony-User"); u != "" {
		return u
	}
	return "anonymous"
}

// programs is the synchronous v1 wrapper over the job layer: submit,
// wait, reply with the whole output.
func (s *Server) programs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	script, ok := s.decodeScript(w, r)
	if !ok {
		return
	}
	s.runSync(w, r, script)
}

// completionRequest is the legacy prompt API.
type completionRequest struct {
	Prompt      string  `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	// Priority is the scheduling lane ("interactive", "normal",
	// "batch"); empty defers to the tenant default.
	Priority string `json:"priority,omitempty"`
}

func (s *Server) completions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req completionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeValidation, "bad JSON: "+err.Error())
		return
	}
	if req.Prompt == "" || req.MaxTokens <= 0 {
		writeError(w, http.StatusBadRequest, CodeValidation, "prompt and max_tokens required")
		return
	}
	// A prompt is a degenerate program: build it as one.
	script := &lipscript.Script{Priority: req.Priority, Steps: []lipscript.Stmt{
		{Op: lipscript.OpAnon, S: "ctx"},
		{Op: lipscript.OpPrefill, S: "ctx", Text: req.Prompt},
		{Op: lipscript.OpGenerate, S: "ctx", MaxTokens: req.MaxTokens,
			Temperature: req.Temperature, Seed: req.Seed},
		{Op: lipscript.OpRemove, S: "ctx"},
	}}
	if err := script.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeValidation, err.Error())
		return
	}
	s.runSync(w, r, script)
}

// runSync is the shared v1 code path: one job submitted through the same
// registry v2 uses, awaited inline.
func (s *Server) runSync(w http.ResponseWriter, r *http.Request, script *lipscript.Script) {
	j, err := s.jobs.Submit(user(r), script)
	if err != nil {
		writeErr(w, err)
		return
	}
	err = s.waitJob(r, j)
	p := j.Proc
	resp := programResponse{
		Output:      p.Output(),
		PID:         p.PID(),
		JobID:       j.ID,
		PredTokens:  p.PredTokens(),
		VirtualTime: p.Runtime().Round(time.Microsecond).String(),
	}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		resp.Code, status = errorCode(err)
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:allow errortaxonomy sync responses carry the taxonomy inline (Code from errorCode) with the matching status
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}
