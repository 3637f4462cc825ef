package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ntga/internal/bench"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		status int
		// check inspects the two streams; nil means only the status matters.
		check func(t *testing.T, stdout, stderr string)
	}{
		{"list prints exactly bench.Figures", []string{"-list"}, 0, func(t *testing.T, stdout, _ string) {
			if want := strings.Join(bench.Figures(), "\n") + "\n"; stdout != want {
				t.Errorf("-list printed %q, want %q", stdout, want)
			}
		}},
		{"unknown figure names the id", []string{"-fig", "fig99"}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || !strings.Contains(stderr, `"fig99"`) {
				t.Errorf("stdout %q, stderr %q: want the id on stderr only", stdout, stderr)
			}
		}},
		{"one JSON document per figure", []string{"-fig", "fig3", "-json"}, 0, func(t *testing.T, stdout, _ string) {
			dec := json.NewDecoder(strings.NewReader(stdout))
			var doc figureJSON
			if err := dec.Decode(&doc); err != nil {
				t.Fatalf("decoding -json output: %v", err)
			}
			if doc.ID != "fig3" || len(doc.Queries) == 0 {
				t.Errorf("document id %q with %d queries, want fig3 with its runs", doc.ID, len(doc.Queries))
			}
			if dec.More() {
				t.Error("more than one JSON document for one figure")
			}
		}},
		{"removed flag -trace-out", []string{"-trace-out", "x.json"}, 2, nil},
		{"removed flag -trace-baseline", []string{"-trace-baseline", "x.json"}, 2, nil},
		{"removed flag -partition-out", []string{"-partition-out", "x.json"}, 2, nil},
		{"removed flag -partition-baseline", []string{"-partition-baseline", "x.json"}, 2, nil},
		{"removed flag -commit", []string{"-commit", "abc"}, 2, nil},
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
