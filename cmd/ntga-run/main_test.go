package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/rdf"
)

func TestRun(t *testing.T) {
	data := filepath.Join(t.TempDir(), "bio.nt")
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
	const (
		q      = `PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:label ?l . ?g ?p ?x . ?x ex:type ?t . }`
		count  = `PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . ?g ?p ?x . }`
		header = "?g\t?l\t?p\t?x\t?t\n"
	)
	// rows checks a -limit 2 run of q: the header, two rows, the remainder
	// line on stdout, and the total on stderr's last line.
	rows := func(t *testing.T, stdout, stderr string) {
		lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
		if !strings.HasPrefix(stdout, header) || len(lines) != 4 || lines[3] != "... (11 more rows)" {
			t.Errorf("stdout = %q, want the header, 2 rows and 11 more", stdout)
		}
		if !strings.HasSuffix(stderr, "13 rows\n") {
			t.Errorf("stderr = %q, want the 13-row total last", stderr)
		}
	}
	cases := []struct {
		name   string
		args   []string
		status int
		// check inspects the two streams; nil means only the status matters.
		check func(t *testing.T, stdout, stderr string)
	}{
		{"rows with a limit", []string{"-data", data, "-e", q, "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			if stderr != "13 rows\n" {
				t.Errorf("stderr = %q", stderr)
			}
		}},
		{"count", []string{"-data", data, "-e", count}, 0, func(t *testing.T, stdout, stderr string) {
			if stdout != "?n\n53\n" || stderr != "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"auto", []string{"-data", data, "-e", q, "-engine", "auto", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			if !strings.HasPrefix(stderr, "auto: selected NTGA-Lazy (phiM=19)\n") {
				t.Errorf("stderr = %q", stderr)
			}
		}},
		{"auto advises with the run's reducer count", []string{"-data", data, "-e", q, "-engine", "auto", "-reducers", "32", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			if !strings.HasPrefix(stderr, "auto: selected NTGA-Lazy (phiM=32)\n") {
				t.Errorf("stderr = %q", stderr)
			}
		}},
		{"advise", []string{"-data", data, "-e", q, "-advise", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			want := "advisor: strategy=LazyAuto phiM=19\n" +
				"  - expected ≈3.2 candidates per unbound pattern: delay β-unnest\n" +
				"  - φ_m = 19 for 31 distinct objects across 8 reducers\n"
			if !strings.HasPrefix(stderr, want) {
				t.Errorf("stderr = %q, want prefix %q", stderr, want)
			}
		}},
		{"optimize", []string{"-data", data, "-e", q, "-optimize", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			if !strings.HasPrefix(stderr, "optimizer: join order kept [0 1] (est shuffle 839)\n") {
				t.Errorf("stderr = %q", stderr)
			}
		}},
		{"reference engine", []string{"-data", data, "-e", q, "-engine", "ref", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
		}},
		{"reference engine count", []string{"-data", data, "-e", count, "-engine", "ref"}, 0, func(t *testing.T, stdout, _ string) {
			if stdout != "?n\n53\n" {
				t.Errorf("stdout %q", stdout)
			}
		}},
		{"missing -data", []string{"-e", q}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || stderr != "ntga-run: -data is required\n" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"missing query", []string{"-data", data}, 1, func(t *testing.T, _, stderr string) {
			if stderr != "ntga-run: one of -query or -e is required\n" {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"unknown engine", []string{"-data", data, "-e", q, "-engine", "nope"}, 1, func(t *testing.T, stdout, stderr string) {
			want := `ntga-run: engines: unknown engine "nope" (want pig, hive, sj-per-cycle, sel-sj-first, ntga-eager, ntga-lazy, ntga-lazy-full, ntga-lazy-partial)` + "\n"
			if stdout != "" || stderr != want {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"unknown flag", []string{"-badflag"}, 2, nil},
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
