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
	"time"

	"repro/internal/core"
	"repro/internal/lipscript"
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
	// MaxBodyBytes caps POST bodies (default 1 MiB).
	MaxBodyBytes int64
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

// Server is the HTTP front-end.
type Server struct {
	clk     *simclock.Clock
	k       *core.Kernel
	mux     *http.ServeMux
	jobs    *jobRegistry
	maxBody int64
}

// New wraps a kernel with default options. The kernel's clock must be
// realtime-paced (simclock.NewRealtime) for HTTP callers to observe
// meaningful timing.
func New(clk *simclock.Clock, k *core.Kernel) *Server {
	return NewWith(clk, k, Options{})
}

// NewWith wraps a kernel with explicit options.
func NewWith(clk *simclock.Clock, k *core.Kernel, o Options) *Server {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		clk:     clk,
		k:       k,
		mux:     http.NewServeMux(),
		jobs:    newJobRegistry(clk, k, o),
		maxBody: o.MaxBodyBytes,
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.maxBody))
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

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	st := s.k.Stats()
	replicas := make([]map[string]any, 0, len(st.Sched.Replicas))
	for _, rs := range st.Sched.Replicas {
		replicas = append(replicas, map[string]any{
			"id":             rs.ID,
			"calls":          rs.Calls,
			"tokens":         rs.Tokens,
			"batches":        rs.Batches,
			"steps":          rs.Steps,
			"avg_batch":      rs.AvgBatch,
			"preemptions":    rs.Preemptions,
			"utilization":    rs.Utilization,
			"busy_virtual":   rs.GPUBusy.String(),
			"queue_delay_us": rs.DelayMean.Microseconds(),
		})
	}
	lanes := make([]map[string]any, 0, len(st.Sched.Lanes))
	for _, ls := range st.Sched.Lanes {
		lanes = append(lanes, map[string]any{
			"lane":               ls.Lane,
			"calls":              ls.Calls,
			"preemptions":        ls.Preemptions,
			"queue_delay_p50_us": ls.DelayP50.Microseconds(),
			"queue_delay_p99_us": ls.DelayP99.Microseconds(),
			"queue_delay_max_us": ls.DelayMax.Microseconds(),
		})
	}
	spec := map[string]any{
		"enabled":         false,
		"rounds":          st.Sched.SpecRounds,
		"drafted_tokens":  st.Sched.SpecDrafted,
		"accepted_tokens": st.Sched.SpecAccepted,
	}
	if sc := s.k.SpecDecode(); sc != nil {
		spec["enabled"] = true
		spec["draft"] = sc.Draft
		spec["window"] = sc.Window
		if st.Sched.SpecDrafted > 0 {
			spec["accept_rate"] = float64(st.Sched.SpecAccepted) / float64(st.Sched.SpecDrafted)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"processes":       st.Processes,
		"pred_calls":      st.PredCalls,
		"pred_tokens":     st.PredTokens,
		"kv_calls":        st.KVCalls,
		"tool_calls":      st.ToolCalls,
		"ipc_messages":    st.IPCMessages,
		"gpu_pages":       st.FS.GPUPages,
		"gpu_page_cap":    st.FS.GPUPageCap,
		"gpu_busy":        st.Sched.Utilization,
		"avg_batch":       st.Sched.AvgBatch,
		"gpus":            len(st.Sched.Replicas),
		"dispatcher":      st.Sched.Dispatcher,
		"priority_policy": st.Sched.PriorityPolicy,
		"preemptions":     st.Sched.Preemptions,
		"executed_tokens": st.Sched.ExecutedTokens,
		"lost_tokens":     st.Sched.LostTokens,
		"crashes":         st.Sched.Crashes,
		"requeued":        st.Sched.Requeued,
		"prefill_chunk":   s.k.Scheduler().PrefillChunk(),
		"spec":            spec,
		"lanes":           lanes,
		"admit_deferred":  st.Sched.AdmitDeferred,
		"admit_wait":      st.Sched.AdmitWait.String(),
		"kvd": map[string]any{
			"policy":             st.KVD.Policy,
			"high_water":         st.KVD.HighWater,
			"low_water":          st.KVD.LowWater,
			"pressure":           st.KVD.Pressure,
			"tracked_files":      st.KVD.Tracked,
			"reclaims":           st.KVD.Reclaims,
			"offloads":           st.KVD.Offloads,
			"offloaded_tokens":   st.KVD.OffloadedTokens,
			"restores":           st.KVD.Restores,
			"restored_tokens":    st.KVD.RestoredTokens,
			"restored_cost":      st.KVD.RestoredCost.String(),
			"swap_restores":      st.KVD.SwapRestores,
			"swap_restored_cost": st.KVD.SwapRestoredCost.String(),
			"preemptions":        st.KVD.Preemptions,
			"spill_rollbacks":    st.KVD.SpillRollbacks,
		},
		"disk": map[string]any{
			"enabled":           st.FS.DiskPageCap > 0,
			"disk_pages":        st.FS.DiskPages,
			"disk_page_cap":     st.FS.DiskPageCap,
			"disk_peak_pages":   st.FS.DiskPeakPages,
			"spills":            st.KVD.Spills,
			"spilled_tokens":    st.KVD.SpilledTokens,
			"loads":             st.KVD.DiskLoads,
			"loaded_tokens":     st.KVD.DiskLoadedTokens,
			"load_cost":         st.KVD.DiskLoadCost.String(),
			"recomputes":        st.KVD.DiskRecomputes,
			"recomputed_tokens": st.KVD.DiskRecomputedTokens,
		},
		"migration": map[string]any{
			"enabled":           st.Migration.Enabled,
			"threshold":         st.Migration.Threshold,
			"interconnect_gbps": st.Migration.InterconnectGbps,
			"prefix_roots":      st.Migration.Roots,
			"migrations":        st.Migration.Migrations,
			"migrated_tokens":   st.Migration.MigratedTokens,
			"migrated_pages":    st.Migration.MigratedPages,
			"migrate_time":      st.Migration.MigrateTime.String(),
			"cold_starts":       st.Migration.ColdStarts,
			"recomputed_tokens": st.Migration.RecomputedTokens,
			"refused_locked":    st.Migration.RefusedLocked,
			"refused_inflight":  st.Migration.RefusedInFlight,
			"refused_pressure":  st.Migration.RefusedPressure,
			"transfer_aborts":   st.Migration.TransferAborts,
			"replica_crashes":   st.Migration.ReplicaCrashes,
			"invalidated_roots": st.Migration.InvalidatedRoots,
		},
		"prefix_cache": map[string]any{
			"enabled":          st.PrefixCache.Enabled,
			"chunk_tokens":     st.PrefixCache.ChunkTokens,
			"nodes":            st.PrefixCache.Nodes,
			"resident_tokens":  st.PrefixCache.ResidentTokens,
			"spilled_tokens":   st.PrefixCache.SpilledTokens,
			"lookups":          st.PrefixCache.Lookups,
			"hits":             st.PrefixCache.Hits,
			"hit_tokens":       st.PrefixCache.HitTokens,
			"saved_prefill_ms": float64(st.PrefixCache.SavedPrefill) / float64(time.Millisecond),
			"insertions":       st.PrefixCache.Insertions,
			"evictions":        st.PrefixCache.Evictions,
			"invalidations":    st.PrefixCache.Invalidations,
		},
		"replicas":     replicas,
		"virtual_time": s.clk.Now().String(),
	})
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
