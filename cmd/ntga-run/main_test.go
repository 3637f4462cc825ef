package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/rdf"
	"ntga/internal/server"
)

// writeFile writes body to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBio writes the bio test graph as N-Triples under dir and returns
// its path.
func writeBio(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	if err := rdf.WriteNTriples(&b, enginetest.BioGraph()); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, "bio.nt", b.String())
}

// runCase is one row of a run table: the arguments, the exit status, and
// check, which inspects the two streams (nil: only the status matters).
type runCase struct {
	name   string
	args   []string
	status int
	check  func(t *testing.T, stdout, stderr string)
}

// runCases runs the rows in order, each as a subtest.
func runCases(t *testing.T, cases []runCase) {
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

// refused checks that a run wrote nothing to stdout and only want, the
// refusal of a flag its mode does not read, to stderr.
func refused(want string) func(t *testing.T, stdout, stderr string) {
	return func(t *testing.T, stdout, stderr string) {
		if stdout != "" || stderr != "ntga-run: "+want+"\n" {
			t.Errorf("stdout %q, stderr %q, want stderr %q", stdout, stderr, want)
		}
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	data := writeBio(t, dir)
	// The -server cases share one daemon over the same graph and run in
	// table order: two ingests, a refused batch between them, then a
	// compaction of the two blocks.
	srv, err := server.New(server.Config{}, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")
	// distAddr is a daemon hosting the master with no worker registered:
	// degraded, with its fleet's status to print.
	m, err := cluster.NewMaster(cluster.MasterConfig{}, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dist, err := server.New(server.Config{Master: m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	dhs := httptest.NewServer(dist.Handler())
	defer dhs.Close()
	distAddr := strings.TrimPrefix(dhs.URL, "http://")
	// hiveAddr is a daemon whose default engine is not a local run's.
	hive, err := server.New(server.Config{DefaultEngine: "hive"}, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer hive.Close()
	hhs := httptest.NewServer(hive.Handler())
	defer hhs.Close()
	hiveAddr := strings.TrimPrefix(hhs.URL, "http://")
	delta := writeFile(t, dir, "delta.nt", "<http://ex/geneZ> <http://ex/label> \"gene Z\" .\n")
	zeta := writeFile(t, dir, "zeta.nt", "<http://ex/geneZ> <http://ex/zeta> \"z\" .\n")
	bad := writeFile(t, dir, "bad.nt", "<http://ex/geneZ> <http://ex/label> .\n")
	// dataset masks the version hashes the daemon reports, and health the
	// hash and uptime of a health line.
	dataset := regexp.MustCompile(`dataset [0-9a-f]{16}\)`)
	health := regexp.MustCompile(`dataset=[0-9a-f]{16} uptime=[0-9]+ms`)
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
	// engineLine checks that the daemon answered q and which engine it
	// reports it ran.
	engineLine := func(name string) func(t *testing.T, stdout, stderr string) {
		return func(t *testing.T, stdout, stderr string) {
			if !strings.HasPrefix(stdout, header) || !strings.HasPrefix(stderr, "server: engine="+name+" ") {
				t.Errorf("stdout %q, stderr %q, want q's rows by engine=%s", stdout, stderr, name)
			}
		}
	}
	runCases(t, []runCase{
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
		{"metrics", []string{"-data", data, "-e", q, "-engine", "hive", "-metrics", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			// The final job's rows went to the caller, so its output reads
			// "→ caller"; every earlier job wrote its output to the DFS.
			var jobs []string
			for _, line := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(line, "Hive-") {
					jobs = append(jobs, line)
				}
			}
			if len(jobs) != 3 || !strings.Contains(jobs[2], "→ caller") ||
				strings.Contains(jobs[0]+jobs[1], "→ caller") {
				t.Errorf("job rows = %q, want three, only the last one's output to the caller", jobs)
			}
		}},
		{"metrics counters in name order", []string{"-data", data, "-e", q, "-engine", "ntga-lazy", "-metrics", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			var counters []string
			for _, line := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(line, "counter ") {
					counters = append(counters, line)
				}
			}
			want := []string{
				"counter ntga.job1.anntgs = 26",
				"counter ntga.job1.groups = 16",
				"counter ntga.join.partial_tgs = 49",
				"counter ntga.join.reduce_unnested = 49",
			}
			if !slices.Equal(counters, want) {
				t.Errorf("counter lines = %q, want %q", counters, want)
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
		{"removed flag -cluster", []string{"-cluster", addr, "-e", q}, 2, nil},
		{"removed flag -cluster-status", []string{"-cluster-status"}, 2, nil},
		{"removed flag -no-partition", []string{"-data", data, "-e", q, "-no-partition"}, 2, nil},
		{"removed flag -partition-out", []string{"-data", data, "-e", q, "-partition-out", "part/X"}, 2, nil},
		{"health of a local daemon", []string{"-health", addr}, 0, func(t *testing.T, stdout, stderr string) {
			if got := health.ReplaceAllString(stdout, "dataset=V uptime=U"); got != "ok triples=52 dataset=V uptime=U\n" || stderr != "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"health of a distributed daemon without workers", []string{"-health", distAddr}, 1, func(t *testing.T, stdout, stderr string) {
			want := "degraded triples=52 dataset=V uptime=U workers=0/0\n" +
				"workers: 0 alive / 0 registered, workers_lost=0, active_queries=0, tasks_dispatched=0\n" +
				"transport: rpc_retries=0 redials=0 fetch_transient_retries=0 worker_reregistrations=0\n" +
				"scheduler: affine_leases=0\n"
			if got := health.ReplaceAllString(stdout, "dataset=V uptime=U"); got != want || stderr != "ntga-run: server unhealthy: status=\"degraded\"\n" {
				t.Errorf("stdout %q, stderr %q, want stdout %q", stdout, stderr, want)
			}
		}},
		{"server ingest", []string{"-server", addr, "-ingest", delta}, 0, func(t *testing.T, stdout, stderr string) {
			want := "ingested 1 triples (seq 1, 1 delta blocks, dataset V)\ncache: 0 retained, 0 evicted\n"
			if got := dataset.ReplaceAllString(stderr, "dataset V)"); stdout != "" || got != want {
				t.Errorf("stdout %q, stderr %q, want stderr %q", stdout, got, want)
			}
		}},
		{"server refuses a bad batch", []string{"-server", addr, "-ingest", bad}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || !strings.HasPrefix(stderr, "ntga-run: ingesting "+bad+": ingest: invalid N-Triples batch") ||
				!strings.HasSuffix(stderr, "(HTTP 422)\n") {
				t.Errorf("stdout %q, stderr %q, want the server's 422 message", stdout, stderr)
			}
		}},
		{"server ingest then query", []string{"-server", addr, "-ingest", zeta, "-e", `PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:zeta ?z . }`}, 0, func(t *testing.T, stdout, stderr string) {
			if stdout != "?g\t?z\n<http://ex/geneZ>\t\"z\"\n" {
				t.Errorf("stdout %q, want the delta row", stdout)
			}
			if !strings.HasPrefix(dataset.ReplaceAllString(stderr, "dataset V)"), "ingested 1 triples (seq 2, 2 delta blocks, dataset V)\n") {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"server compact", []string{"-server", addr, "-compact"}, 0, func(t *testing.T, stdout, stderr string) {
			want := "compacted 2 delta blocks (2 triples) into base generation 1 (dataset V)\n"
			if got := dataset.ReplaceAllString(stderr, "dataset V)"); stdout != "" || got != want {
				t.Errorf("stdout %q, stderr %q, want stderr %q", stdout, got, want)
			}
		}},
		{"server applies its default engine", []string{"-server", hiveAddr, "-e", q, "-limit", "2"}, 0, engineLine("Hive")},
		{"server is sent an explicit -engine ntga-lazy", []string{"-server", hiveAddr, "-engine", "ntga-lazy", "-e", q, "-limit", "2"}, 0, engineLine("NTGA-Lazy")},
		// Each mode refuses the flags it does not read.
		{"-health refuses -e", []string{"-health", addr, "-e", q}, 2,
			refused("-e has no effect with -health (it only probes the daemon)")},
		{"-server refuses -reducers", []string{"-server", addr, "-reducers", "4", "-e", q}, 2,
			refused("-reducers has no effect with -server (the daemon's boot flags decide)")},
		{"-server refuses -optimize", []string{"-server", addr, "-optimize", "-e", q}, 2,
			refused("-optimize has no effect with -server (the daemon's boot flags decide)")},
		{"-explain refuses -engine", []string{"-explain", "-data", data, "-engine", "hive", "-e", q}, 2,
			refused("-engine has no effect with -explain (EXPLAIN prints every engine at its defaults)")},
		{"a local run refuses -tenant", []string{"-data", data, "-e", q, "-tenant", "gold"}, 2,
			refused("-tenant has no effect on a local run (only -server or -explain reads it)")},
		{"a local run refuses -json", []string{"-data", data, "-e", q, "-json"}, 2,
			refused("-json has no effect on a local run (only -server or -explain reads it)")},
		{"the reference engine refuses -metrics", []string{"-data", data, "-e", q, "-engine", "ref", "-metrics"}, 2,
			refused("-metrics has no effect with -engine ref (the reference engine runs without a simulated cluster)")},
		{"the reference engine refuses -ingest", []string{"-data", data, "-e", q, "-engine", "ref", "-ingest", delta}, 2,
			refused("-ingest has no effect with -engine ref (the reference engine runs without a simulated cluster)")},
		{"the reference engine reads -reducers and -advise", []string{"-data", data, "-e", q, "-engine", "ref", "-reducers", "32", "-advise", "-limit", "2"}, 0, func(t *testing.T, stdout, stderr string) {
			rows(t, stdout, stderr)
			if !strings.HasPrefix(stderr, "advisor: strategy=LazyAuto phiM=32\n") {
				t.Errorf("stderr = %q", stderr)
			}
		}},
	})
}

// TestRunExplain is the -explain mode's table.
func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	data := writeBio(t, dir)
	stats := filepath.Join(dir, "catalog.json")
	if err := plan.FromGraph(enginetest.BioGraph()).WriteFile(stats); err != nil {
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
	runCases(t, []runCase{
		{"no statistics", []string{"-explain", "-e", q}, 1, func(t *testing.T, stdout, stderr string) {
			if stdout != "" || stderr != "ntga-run: one of -data or -stats is required\n" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"-analyze without -data", []string{"-explain", "-stats", stats, "-e", q, "-analyze"}, 1, func(t *testing.T, _, stderr string) {
			if stderr != "ntga-run: -analyze executes the query and therefore needs -data\n" {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"no query", []string{"-explain", "-data", data}, 1, func(t *testing.T, _, stderr string) {
			if stderr != "ntga-run: one of -query or -e is required\n" {
				t.Errorf("stderr %q", stderr)
			}
		}},
		{"missing query file", []string{"-explain", "-data", data, "-query", filepath.Join(dir, "none.rq")}, 1, nil},
		{"unknown flag", []string{"-explain", "-badflag"}, 2, nil},
		{"-data", []string{"-explain", "-data", data, "-e", q}, 0, func(t *testing.T, stdout, stderr string) {
			fromData = estimates(stdout)
			if !strings.HasPrefix(stdout, "== logical plan ==\nquery: 2 star(s), 1 join(s), 5 var(s)\n") ||
				!strings.Contains(fromData, "== NTGA-Lazy plan ==\nstage 1: GroupFilter  $1 <- T\n") || stderr != "" {
				t.Errorf("stdout %q, stderr %q", stdout, stderr)
			}
		}},
		{"-stats prices the plans as -data does", []string{"-explain", "-stats", stats, "-e", q}, 0, func(t *testing.T, stdout, _ string) {
			if got := estimates(stdout); fromData == "" || got != fromData {
				t.Errorf("estimates from the catalog file:\n%s\nfrom the data:\n%s", got, fromData)
			}
		}},
		{"-analyze over the bucketed layout", []string{"-explain", "-data", data, "-e", q, "-analyze", "-partition-buckets", "4"}, 0, func(t *testing.T, stdout, _ string) {
			// Both NTGA engines run every cycle shuffle-free.
			for _, eng := range []string{"NTGA-Eager", "NTGA-Lazy"} {
				want := eng + strings.Repeat(" ", 15-len(eng)) + "2/2          0/0        0/0                    13\n"
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout %q lacks %q", stdout, want)
				}
			}
		}},
		{"-analyze -json over the bucketed layout", []string{"-explain", "-data", data, "-e", q, "-analyze", "-json", "-partition-buckets", "4"}, 0, func(t *testing.T, stdout, _ string) {
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
	})
}
