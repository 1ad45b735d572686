// The v1 error contract: every error the service can return maps to
// exactly one machine-readable code, and every code maps to exactly
// one HTTP status — here, once, so handlers and the typed client
// never restate the taxonomy. The wire shape is
//
//	{"error": {"code": "queue_full", "message": "...", "details": [...]}}
//
// with details populated only by batch validation failures.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Admission and lookup errors; codeOf maps them (and nothing else)
// onto the wire taxonomy.
var (
	ErrQueueFull   = errors.New("serve: admission queue full")
	ErrDraining    = errors.New("serve: service is draining")
	ErrNotFound    = errors.New("serve: no such job")
	ErrInvalidSpec = errors.New("serve: invalid job spec")
	// ErrTerminal reports a cancel of a job that already reached a
	// terminal status (done, failed or canceled) — a 409 conflict, not
	// a silent no-op.
	ErrTerminal = errors.New("serve: job already terminal")
	// ErrRateLimited rejects a submission the tenant's token bucket
	// cannot cover — a 429 whose Retry-After says when it could
	// (RateLimitError carries the wait).
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	// ErrUnauthorized rejects a submission whose X-API-Key is unknown,
	// or that presents none while the registry requires one.
	ErrUnauthorized = errors.New("serve: unauthorized")
)

// ErrorCode is the machine-readable error class of the v1 API.
type ErrorCode string

const (
	CodeInvalidSpec     ErrorCode = "invalid_spec"     // 400: spec failed registry validation
	CodeInvalidArgument ErrorCode = "invalid_argument" // 400: malformed body or query parameter
	CodeNotFound        ErrorCode = "not_found"        // 404: no such job (or evicted)
	CodeTerminal        ErrorCode = "terminal"         // 409: job already done/failed/canceled
	CodeQueueFull       ErrorCode = "queue_full"       // 429: admission queue full, honor Retry-After
	CodeRateLimited     ErrorCode = "rate_limited"     // 429: tenant token bucket empty, honor Retry-After
	CodeUnauthorized    ErrorCode = "unauthorized"     // 401: unknown or missing API key
	CodeDraining        ErrorCode = "draining"         // 503: service shutting down
	CodeInternal        ErrorCode = "internal"         // 500: anything unclassified
)

// HTTPStatus is the one place a code becomes an HTTP status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeInvalidSpec, CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeTerminal:
		return http.StatusConflict
	case CodeQueueFull, CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeUnauthorized:
		return http.StatusUnauthorized
	case CodeDraining:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// codeOf classifies a service error.
func codeOf(err error) ErrorCode {
	switch {
	case errors.Is(err, ErrInvalidSpec):
		return CodeInvalidSpec
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrTerminal):
		return CodeTerminal
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited
	case errors.Is(err, ErrUnauthorized):
		return CodeUnauthorized
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, ErrDraining), errors.Is(err, ErrPoolClosed):
		return CodeDraining
	default:
		return CodeInternal
	}
}

// ErrorBody is the v1 error envelope.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries the typed error across the wire.
type ErrorInfo struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// Details itemizes batch validation failures by spec index.
	Details []BatchItemError `json:"details,omitempty"`
}

// BatchItemError locates one invalid spec inside a rejected batch.
type BatchItemError struct {
	Index   int    `json:"index"`
	Message string `json:"message"`
}

// BatchError rejects a whole batch: admission is atomic, so one
// invalid spec fails every spec. It wraps ErrInvalidSpec.
type BatchError struct {
	Items []BatchItemError
}

func (e *BatchError) Error() string {
	msgs := make([]string, len(e.Items))
	for i, it := range e.Items {
		msgs[i] = fmt.Sprintf("spec[%d]: %s", it.Index, it.Message)
	}
	return fmt.Sprintf("%v (batch rejected atomically: %s)", ErrInvalidSpec, strings.Join(msgs, "; "))
}

func (e *BatchError) Unwrap() error { return ErrInvalidSpec }

// jobCanceled reports whether a job error is a cooperative
// cancellation (the run aborted at a checkpoint), which finishes the
// job as canceled rather than failed.
func jobCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
