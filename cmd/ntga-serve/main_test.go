package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/rdf"
)

// TestRun covers every way the daemon stops before it serves: each returns
// a status and names the cause on stderr, and none writes to stdout.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "bio.nt")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(f, enginetest.BioGraph()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte("<http://ex/a> <http://ex/p> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// taken is an address something already listens on, so neither the
	// HTTP listener nor the worker RPC can bind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := ln.Addr().String()

	cases := []struct {
		name   string
		args   []string
		status int
		// stderr is a substring the error line must contain.
		stderr string
	}{
		{"missing -data", []string{"-addr", "127.0.0.1:0"}, 1, "ntga-serve: -data is required\n"},
		{"unreadable -data", []string{"-data", filepath.Join(dir, "none.nt")}, 1, "none.nt: no such file or directory"},
		{"malformed -data", []string{"-data", bad}, 1, "bad.nt: "},
		{"-addr cannot be bound", []string{"-data", data, "-addr", taken}, 1, "address already in use"},
		{"-workers cannot be bound", []string{"-data", data, "-addr", "127.0.0.1:0", "-workers", taken}, 1, "ntga-serve: serving the worker RPC: "},
		{"removed flag -cluster", []string{"-data", data, "-cluster", taken}, 2, "flag provided but not defined: -cluster"},
		{"removed flag -local-fallback", []string{"-data", data, "-local-fallback"}, 2, "flag provided but not defined: -local-fallback"},
		{"removed flag -probe-every", []string{"-data", data, "-probe-every", "1s"}, 2, "flag provided but not defined: -probe-every"},
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
