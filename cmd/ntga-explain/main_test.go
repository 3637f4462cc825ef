package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/rdf"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "bio.nt")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	g := enginetest.BioGraph()
	if err := rdf.WriteNTriples(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stats := filepath.Join(dir, "catalog.json")
	if err := plan.FromGraph(g).WriteFile(stats); err != nil {
		t.Fatal(err)
	}
	const q = `PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:label ?l . ?g ?p ?x . ?x ex:type ?t . }`
	// estimates is the output from the cost table on: what a catalog prices,
	// without the logical plan the query compiled to.
	estimates := func(stdout string) string {
		i := strings.Index(stdout, "== estimated cost ==")
		if i < 0 {
			return ""
		}
		return stdout[i:]
	}
	var fromData string
	cases := []struct {
		name   string
		args   []string
		status int
		// check inspects the two streams; nil means only the status matters.
		check func(t *testing.T, stdout, stderr string)
	}{
		{"no statistics", []string{"-e", q}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || stderr != "ntga-explain: one of -data or -stats is required\n" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"-analyze without -data", []string{"-stats", stats, "-e", q, "-analyze"}, 1, func(t *testing.T, _, stderr string) {
			if stderr != "ntga-explain: -analyze executes the query and therefore needs -data\n" {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"no query", []string{"-data", data}, 1, func(t *testing.T, _, stderr string) {
			if stderr != "ntga-explain: one of -query or -e is required\n" {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"missing query file", []string{"-data", data, "-query", filepath.Join(dir, "none.rq")}, 1, nil},
		{"unknown flag", []string{"-badflag"}, 2, nil},
		{"-data", []string{"-data", data, "-e", q}, 0, func(t *testing.T, stdout, stderr string) {
			fromData = estimates(stdout)
			if !strings.HasPrefix(stdout, "== logical plan ==\nquery: 2 star(s), 1 join(s), 5 var(s)\n") ||
				!strings.Contains(fromData, "== NTGA-Lazy plan ==\nstage 1: GroupFilter  $1 <- T\n") || stderr != "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"-stats prices the plans as -data does", []string{"-stats", stats, "-e", q}, 0, func(t *testing.T, stdout, _ string) {
			if got := estimates(stdout); fromData == "" || got != fromData {
				t.Errorf("estimates from the catalog file:\n%s\nfrom the data:\n%s", got, fromData)
			}
		}},
		{"-analyze over the bucketed layout", []string{"-data", data, "-e", q, "-analyze", "-partition-buckets", "4"}, 0, func(t *testing.T, stdout, _ string) {
			// Both NTGA engines run every cycle shuffle-free.
			for _, eng := range []string{"NTGA-Eager", "NTGA-Lazy"} {
				want := eng + strings.Repeat(" ", 15-len(eng)) + "2/2          0/0        0/0                    13\n"
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout %q lacks %q", stdout, want)
				}
			}
		}},
		{"-analyze -json over the bucketed layout", []string{"-data", data, "-e", q, "-analyze", "-json", "-partition-buckets", "4"}, 0, func(t *testing.T, stdout, _ string) {
			var runs []explain.RunCost
			if err := json.Unmarshal([]byte(stdout), &runs); err != nil {
				t.Fatal(err)
			}
			ntga := 0
			for _, rc := range runs {
				if !strings.HasPrefix(rc.Engine, "NTGA-") {
					continue
				}
				ntga++
				if !rc.Ran || rc.Rows != 13 || rc.ActShuffleBytes != 0 ||
					strings.Count(rc.Plan, "map-only part=subject/4") != 2 {
					t.Errorf("%s: ran %v, %d rows, %d shuffle bytes, plan %q; want a 13-row run of two map-only cycles, nothing shuffled",
						rc.Engine, rc.Ran, rc.Rows, rc.ActShuffleBytes, rc.Plan)
				}
			}
			if ntga != 2 {
				t.Errorf("%d NTGA engines analyzed, want 2", ntga)
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
