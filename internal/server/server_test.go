package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ntga/internal/enginetest"
)

const exPrefix = "PREFIX ex: <http://ex/>\n"

const twoStarQuery = exPrefix + `SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestEvaluateBasicAndResultCache(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()

	first, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" || first.PlanCache != "miss" {
		t.Errorf("first run cache=%s plan_cache=%s, want miss/miss", first.Cache, first.PlanCache)
	}
	if first.Cycles == 0 {
		t.Error("first run executed zero MR cycles")
	}
	if first.TotalRows == 0 || len(first.Rows) != first.TotalRows {
		t.Errorf("rows=%d total=%d, want non-empty and untruncated", len(first.Rows), first.TotalRows)
	}
	if len(first.Header) == 0 {
		t.Error("no header")
	}

	second, err := s.Evaluate(ctx, Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.PlanCache != "hit" {
		t.Errorf("repeat run cache=%s plan_cache=%s, want hit/hit", second.Cache, second.PlanCache)
	}
	if second.Cycles != 0 {
		t.Errorf("cache hit ran %d MR cycles, want 0", second.Cycles)
	}
	if strings.Join(second.Rows, "\n") != strings.Join(first.Rows, "\n") {
		t.Error("cached rows differ from executed rows")
	}

	bypass, err := s.Evaluate(ctx, Request{Query: twoStarQuery, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bypass.Cache != "bypass" || bypass.Cycles == 0 {
		t.Errorf("NoCache run cache=%s cycles=%d, want bypass with real execution", bypass.Cache, bypass.Cycles)
	}
	if strings.Join(bypass.Rows, "\n") != strings.Join(first.Rows, "\n") {
		t.Error("bypass rows differ from first run")
	}

	m := s.Snapshot()
	if m.Queries != 3 || m.Succeeded != 3 || m.Failed != 0 {
		t.Errorf("metrics queries/succeeded/failed = %d/%d/%d, want 3/3/0", m.Queries, m.Succeeded, m.Failed)
	}
	if m.ResultCache.Hits != 1 {
		t.Errorf("result cache hits = %d, want 1", m.ResultCache.Hits)
	}
}

func TestEvaluateCount(t *testing.T) {
	s := newTestServer(t, Config{})
	q := exPrefix + `SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`
	r, err := s.Evaluate(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsCount || r.Count == 0 {
		t.Fatalf("count response = %+v, want IsCount with non-zero Count", r)
	}
	hit, err := s.Evaluate(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Count != r.Count {
		t.Errorf("cached count = %d (cache=%s), want %d from hit", hit.Count, hit.Cache, r.Count)
	}
}

func TestEvaluateLimitTruncatesRowsOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	full, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalRows < 2 {
		t.Skipf("need >= 2 rows, have %d", full.TotalRows)
	}
	lim, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Rows) != 1 || lim.TotalRows != full.TotalRows {
		t.Errorf("limit 1: rows=%d total=%d, want 1/%d", len(lim.Rows), lim.TotalRows, full.TotalRows)
	}
	if lim.Rows[0] != full.Rows[0] {
		t.Errorf("limited first row %q != full first row %q", lim.Rows[0], full.Rows[0])
	}
}

func TestEvaluateBadInputs(t *testing.T) {
	s := newTestServer(t, Config{})
	for name, req := range map[string]Request{
		"empty":          {Query: "   "},
		"syntax":         {Query: "SELECT WHERE {"},
		"unknown engine": {Query: twoStarQuery, Engine: "mongodb"},
	} {
		if _, err := s.Evaluate(context.Background(), req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", name, err)
		}
	}
	if got := s.Snapshot().Failed; got != 3 {
		t.Errorf("failed counter = %d, want 3", got)
	}
}

func TestEngineSelection(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, eng := range []string{"pig", "hive", "ntga-eager", "ntga-lazy", "auto"} {
		r, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery, Engine: eng, NoCache: true})
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if r.Engine == "" || r.Engine == "auto" {
			t.Errorf("engine %s resolved to %q", eng, r.Engine)
		}
		if r.TotalRows == 0 {
			t.Errorf("engine %s returned no rows", eng)
		}
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 2})
	// Fill the whole admission window (running + queued), then one more
	// request must shed with ErrOverloaded without blocking.
	var releases []func()
	for i := 0; i < 3; i++ {
		release, err := s.admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	if _, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-admission Evaluate = %v, want ErrOverloaded", err)
	}
	if _, err := s.Submit(Request{Query: twoStarQuery}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-admission Submit = %v, want ErrOverloaded", err)
	}
	if got := s.Snapshot().Shed; got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}
	for _, r := range releases {
		r()
	}
	if _, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery}); err != nil {
		t.Fatalf("post-release Evaluate = %v, want success", err)
	}
}

func TestDeadlineSweepsTemps(t *testing.T) {
	s := newTestServer(t, Config{})
	_, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery, NoCache: true, TimeoutMS: 1})
	if err == nil {
		// The tiny deadline can occasionally lose the race on a fast
		// machine; a success is not a failure of the sweep invariant.
		t.Log("query beat the 1ms deadline")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if temps := s.dfs.ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked after deadline: %v", temps)
	}
	// The service must remain fully usable after a timed-out query.
	if _, err := s.Evaluate(context.Background(), Request{Query: twoStarQuery}); err != nil {
		t.Fatalf("post-deadline Evaluate = %v", err)
	}
}

func TestAsyncJobs(t *testing.T) {
	s := newTestServer(t, Config{})
	id, err := s.Submit(Request{Query: twoStarQuery})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.WaitJob(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Response == nil || st.Response.TotalRows == 0 {
		t.Fatalf("job = %+v, want done with rows", st)
	}
	if _, ok := s.JobStatus("job-999999"); ok {
		t.Error("unknown job id resolved")
	}
	if _, err := s.WaitJob(ctx, "job-999999"); err == nil {
		t.Error("WaitJob on unknown id succeeded")
	}

	bad, err := s.Submit(Request{Query: "SELECT WHERE {"})
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.WaitJob(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("bad-query job = %+v, want failed with error text", st)
	}
}

// TestAsyncJobRegistryBounded: a daemon that has answered more than
// maxRetainedJobs async queries keeps the newest results pollable and
// forgets the oldest, which then answers like an id that never existed.
func TestAsyncJobRegistryBounded(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first, last string
	for i := 0; i < maxRetainedJobs+10; i++ {
		id, err := s.Submit(Request{Query: twoStarQuery})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = id
		}
		last = id
	}
	if n := s.Snapshot().AsyncJobs; n > maxRetainedJobs {
		t.Errorf("registry holds %d jobs, want at most %d", n, maxRetainedJobs)
	}
	if st, ok := s.JobStatus(last); !ok || st.State != JobDone || st.Response == nil {
		t.Errorf("newest job %s = %+v (found %v), want done with its response", last, st, ok)
	}
	if _, ok := s.JobStatus(first); ok {
		t.Errorf("oldest job %s is still registered", first)
	}
}

// TestJobRegistryKeepsRunningJobs: the cap only ever drops finished jobs, so
// a running job stays pollable however many were submitted after it — also
// while other submitters create and finish jobs concurrently.
func TestJobRegistryKeepsRunningJobs(t *testing.T) {
	r := newJobRegistry()
	running := r.create()
	var others []*asyncJob
	for i := 0; i < maxRetainedJobs+10; i++ {
		others = append(others, r.create())
	}
	if got, want := r.size(), maxRetainedJobs+11; got != want {
		t.Fatalf("registry dropped running jobs: size %d, want %d", got, want)
	}
	for _, j := range others {
		j.finish(&Response{}, nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < maxRetainedJobs; i++ {
				r.create().finish(&Response{}, nil)
			}
		}()
	}
	wg.Wait()
	newest := r.create()
	if got := r.size(); got != maxRetainedJobs {
		t.Errorf("size once the finished jobs became droppable = %d, want %d", got, maxRetainedJobs)
	}
	if _, ok := r.get(running.id); !ok {
		t.Error("the still-running oldest job was dropped")
	}
	if _, ok := r.get(newest.id); !ok {
		t.Error("the newest job was dropped")
	}
	if _, ok := r.get(others[0].id); ok {
		t.Error("the oldest finished job survived while newer ones were dropped")
	}
}

func TestDatasetAndCatalogVersionsDiffer(t *testing.T) {
	a := newTestServer(t, Config{})
	big, err := New(Config{}, enginetest.RandomGraph(7, 500, 40, 12, 60))
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	av, bv := a.wh.View(), big.wh.View()
	if av.Version == bv.Version {
		t.Error("different datasets share a dataset version")
	}
	if av.CatalogVersion == bv.CatalogVersion {
		t.Error("different datasets share a catalog version")
	}
}
