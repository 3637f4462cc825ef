package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// The error table must round-trip: the status a typed error maps to must
// map back to an error that errors.Is-matches the original.
func TestErrorStatusRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code int
	}{
		{"overloaded", ErrOverloaded, http.StatusTooManyRequests},
		{"bad query", ErrBadQuery, http.StatusBadRequest},
		{"too large", ErrTooLarge, http.StatusRequestEntityTooLarge},
		{"overflowed body", tooLarge(&http.MaxBytesError{Limit: 8}), http.StatusRequestEntityTooLarge},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, StatusClientClosedRequest},
		{"wrapped overloaded", fmt.Errorf("tenant x: %w", ErrOverloaded), http.StatusTooManyRequests},
		{"wrapped bad query", fmt.Errorf("%w: parse: oops", ErrBadQuery), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := statusForError(c.err)
			if code != c.code {
				t.Fatalf("statusForError(%v) = %d, want %d", c.err, code, c.code)
			}
			back := errorForStatus(code, c.err.Error())
			for _, e := range errorStatuses {
				if e.code == c.code && !errors.Is(back, e.err) {
					t.Fatalf("errorForStatus(%d) = %v does not match table error %v", code, back, e.err)
				}
			}
		})
	}
	if statusForError(errors.New("boom")) != http.StatusInternalServerError {
		t.Error("unmapped error must be a 500")
	}
	if err := errorForStatus(http.StatusTeapot, "odd"); err == nil || errors.Is(err, ErrBadQuery) {
		t.Errorf("unmapped status must give an untyped error, got %v", err)
	}
	// Retry-After hints travel only on the "try again soon" statuses.
	if retryAfterSeconds(http.StatusTooManyRequests) != 1 {
		t.Error("429 lost its Retry-After hint")
	}
	if retryAfterSeconds(http.StatusBadRequest) != 0 {
		t.Error("400 grew a Retry-After hint")
	}
}
