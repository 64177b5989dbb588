// Typed error surface for the serving API. Every error leaves the server
// as {"error": human text, "code": stable machine string} with the HTTP
// status implied by the code, so clients can branch on failures without
// parsing prose. Kernel errors (internal/core) and registry errors
// (jobs.go) funnel through errorCode; request-shape and script
// validation failures are written directly with CodeValidation at the
// handler that detects them.
package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/simclock"
)

// Stable machine-readable error codes.
const (
	CodeValidation       = "validation_error"   // malformed request or script (400)
	CodeNotFound         = "not_found"          // unknown or expired job ID (404)
	CodeMethodNotAllowed = "method_not_allowed" // wrong HTTP method (405)
	CodePayloadTooLarge  = "payload_too_large"  // body over the byte cap (413)
	CodeBudget           = "budget_exhausted"   // per-process token budget (422)
	CodeQuota            = "quota_exhausted"    // per-tenant live-job quota (429)
	CodeCancelled        = "cancelled"          // process cancelled mid-flight (499)
	CodeProgramFailed    = "program_failed"     // program ran and returned an error (422)
	CodeInternal         = "internal_error"     // kernel shutdown or unclassified (500)
)

// statusClientClosed is nginx's nonstandard 499 "client closed request",
// the conventional status for work abandoned by cancellation.
const statusClientClosed = 499

// errorCode maps an error from the kernel, interpreter, or job registry
// to its machine code and HTTP status.
func errorCode(err error) (code string, status int) {
	switch {
	case err == nil:
		return "", http.StatusOK
	// Only a missing *job* is not_found. A program whose own runtime
	// failed on a missing KV path or dead process is a program failure
	// (422), not a missing API resource.
	case errors.Is(err, errJobNotFound):
		return CodeNotFound, http.StatusNotFound
	case errors.Is(err, errJobQuota):
		return CodeQuota, http.StatusTooManyRequests
	case errors.Is(err, core.ErrCancelled):
		return CodeCancelled, statusClientClosed
	case errors.Is(err, core.ErrBudget):
		return CodeBudget, http.StatusUnprocessableEntity
	case errors.Is(err, simclock.ErrShutdown):
		return CodeInternal, http.StatusInternalServerError
	default:
		return CodeProgramFailed, http.StatusUnprocessableEntity
	}
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError sends a typed error response.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	//lint:allow errortaxonomy this is the taxonomy writer itself; the status always comes from errorCode
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// writeErr classifies err with errorCode and sends it.
func writeErr(w http.ResponseWriter, err error) {
	code, status := errorCode(err)
	writeError(w, status, code, err.Error())
}
