package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/rdf"
)

func TestRun(t *testing.T) {
	want, err := bench.Dataset("infobox", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "infobox.nt")
	var fromFile []byte
	cases := []struct {
		name   string
		args   []string
		status int
		// check inspects the two streams; nil means only the status matters.
		check func(t *testing.T, stdout, stderr string)
	}{
		{"help", []string{"-h"}, 0, nil},
		{"unknown flag", []string{"-badflag"}, 2, nil},
		{"unknown -dataset", []string{"-dataset", "nope"}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || stderr != "ntga-datagen: bench: unknown dataset \"nope\"\n" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"-out writes N-Triples", []string{"-dataset", "infobox", "-seed", "7", "-out", out}, 0, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || !strings.HasPrefix(stderr, "wrote ") {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
			var err error
			if fromFile, err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
			g, err := rdf.ReadNTriples(bytes.NewReader(fromFile))
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != want.Len() {
				t.Errorf("read back %d triples, want %d", g.Len(), want.Len())
			}
		}},
		{"stdout without -out", []string{"-dataset", "infobox", "-seed", "7"}, 0, func(t *testing.T, stdout, _ string) {
			if len(fromFile) == 0 || stdout != string(fromFile) {
				t.Errorf("stdout (%d bytes) differs from the -out file (%d bytes)", len(stdout), len(fromFile))
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
