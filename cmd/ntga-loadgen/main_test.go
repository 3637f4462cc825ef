package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun replays in process only; no row starts a daemon.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		status int
		// check inspects the two streams; nil means only the status matters.
		check func(t *testing.T, stdout, stderr string)
	}{
		{"help", []string{"-h"}, 0, func(t *testing.T, _, stderr string) {
			if !strings.Contains(stderr, "-tenants string") {
				t.Errorf("stderr %q, want the usage", stderr)
			}
		}},
		{"unknown flag", []string{"-badflag"}, 2, nil},
		{"malformed -tenants", []string{"-tenants", "gold:3"}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || stderr != "ntga-loadgen: tenant \"gold:3\": want name:weight:share\n" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"in-process replay, verified", []string{"-scale", "1", "-requests", "8", "-clients", "2", "-verify"}, 0, func(t *testing.T, stdout, stderr string) {
			if !strings.HasPrefix(stdout, "trace: 8 events over 8 queries, closed-loop, 2 clients\n") ||
				!strings.Contains(stdout, "outcomes: ok=8 shed=0 deadline=0 error=0\n") ||
				!strings.HasSuffix(stdout, "verify: all 8 ok responses byte-identical to serial reference\n") || stderr != "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.status {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.status, stderr.String())
			}
			if tc.check != nil {
				tc.check(t, stdout.String(), stderr.String())
			}
		})
	}
}
