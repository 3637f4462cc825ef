package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ntga/internal/ingest"
)

// StatusClientClosedRequest is the nginx convention for "the client went
// away before the response": context.Canceled maps here.
const StatusClientClosedRequest = 499

// ErrUnavailable is the serve-path face of a lost distributed substrate:
// the master (or its fleet) is unreachable, so the query could not run —
// but the condition is environmental and retryable, not the query's fault.
// The HTTP layer maps it to 503 with a Retry-After; it wraps
// mapreduce.ErrClusterUnavailable's family (cluster.ErrMasterLost) at the
// evaluate seam.
var ErrUnavailable = errors.New("server: cluster unavailable")

// ErrTooLarge rejects a request whose body exceeds the endpoint's byte cap
// (maxQueryBodyBytes, maxIngestBodyBytes) before it is buffered whole.
var ErrTooLarge = errors.New("server: request body too large")

// Request-body caps: a query is a page of SPARQL plus options; an ingest
// batch is read into memory whole before it is validated.
const (
	maxQueryBodyBytes  = 1 << 20
	maxIngestBodyBytes = 16 << 20
)

// tooLarge rebuilds an http.MaxBytesReader overflow as ErrTooLarge; any
// other error yields nil.
func tooLarge(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("%w: limit is %d bytes", ErrTooLarge, mbe.Limit)
	}
	return nil
}

// errorStatuses is the single typed-error ↔ HTTP status table both sides of
// the wire share: the handler walks it to pick a status code (and a
// Retry-After hint for the retryable ones), and the client walks it
// backwards to rebuild a typed error, so errors.Is works identically
// against a local Server and a remote one. Order matters only for errors
// that wrap each other; first match wins.
var errorStatuses = []struct {
	err  error
	code int
	// retryAfter, in seconds, is sent as the Retry-After header when > 0 —
	// the statuses that mean "the service is fine, just not right now".
	retryAfter int
}{
	{ErrOverloaded, http.StatusTooManyRequests, 1},
	{ErrTooLarge, http.StatusRequestEntityTooLarge, 0},
	{ErrBadQuery, http.StatusBadRequest, 0},
	{ingest.ErrBadBatch, http.StatusUnprocessableEntity, 0},
	{ErrUnavailable, http.StatusServiceUnavailable, 2},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, 0},
	{context.Canceled, StatusClientClosedRequest, 0},
}

// statusForError maps an Evaluate/Submit error to its HTTP status.
func statusForError(err error) int {
	for _, e := range errorStatuses {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return http.StatusInternalServerError
}

// retryAfterSeconds reports the Retry-After hint for a status (0 = none).
func retryAfterSeconds(code int) int {
	for _, e := range errorStatuses {
		if e.code == code {
			return e.retryAfter
		}
	}
	return 0
}

// errorForStatus rebuilds the typed error a status code stands for, keeping
// the server's message. Unmapped codes yield a plain error.
func errorForStatus(code int, msg string) error {
	for _, e := range errorStatuses {
		if e.code == code {
			return fmt.Errorf("%w: %s (HTTP %d)", e.err, msg, code)
		}
	}
	return fmt.Errorf("server: %s (HTTP %d)", msg, code)
}
