package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun covers every way the worker stops before it registers: each
// returns a status and names the cause on stderr, none writes to stdout,
// and none starts a worker.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		status int
		// stderr is a substring stderr must contain.
		stderr string
	}{
		{"help", []string{"-h"}, 0, "-master string"},
		{"missing -master", nil, 1, "ntga-worker: -master is required\n"},
		{"-chaos-drop above 1", []string{"-master", "127.0.0.1:1", "-chaos-drop", "1.5"}, 2, "ntga-worker: -chaos-drop 1.5 is not a probability in [0, 1]\n"},
		{"-chaos-drop below 0", []string{"-master", "127.0.0.1:1", "-chaos-drop", "-0.1"}, 2, "ntga-worker: -chaos-drop -0.1 is not a probability in [0, 1]\n"},
		{"-chaos-sever above 1", []string{"-master", "127.0.0.1:1", "-chaos-sever", "2"}, 2, "ntga-worker: -chaos-sever 2 is not a probability in [0, 1]\n"},
		{"unknown flag", []string{"-badflag"}, 2, "flag provided but not defined: -badflag"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.status {
				t.Errorf("status %d, want %d (stderr %q)", got, c.status, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want empty", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), c.stderr)
			}
		})
	}
}
