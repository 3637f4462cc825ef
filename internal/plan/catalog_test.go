package plan_test

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/rdf"
	"ntga/internal/trace"
)

func TestFromGraphExact(t *testing.T) {
	g := enginetest.BioGraph()
	cat := plan.FromGraph(g)

	if cat.Triples != int64(g.Len()) {
		t.Errorf("Triples = %d, want %d", cat.Triples, g.Len())
	}
	if want := int64(len(g.Subjects())); cat.Subjects != want {
		t.Errorf("Subjects = %d, want %d", cat.Subjects, want)
	}
	if cat.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", cat.Bytes)
	}

	// Per-property triple counts must partition the relation.
	var sum int64
	for _, ps := range cat.Props {
		sum += ps.Triples
	}
	if sum != cat.Triples {
		t.Errorf("per-property triples sum to %d, want %d", sum, cat.Triples)
	}

	// Spot-check one property against a direct scan.
	label := rdf.NewIRI("http://ex/label")
	labelID, ok := g.Dict.Lookup(label)
	if !ok {
		t.Fatal("BioGraph has no ex:label property")
	}
	var n int64
	subj := map[rdf.ID]struct{}{}
	for _, tr := range g.Triples {
		if tr.P == labelID {
			n++
			subj[tr.S] = struct{}{}
		}
	}
	ps, ok := cat.Prop(label.Key())
	if !ok {
		t.Fatalf("catalog has no stats for %s", label.Key())
	}
	if ps.Triples != n || ps.Subjects != int64(len(subj)) {
		t.Errorf("label stats = %+v, want triples=%d subjects=%d", ps, n, len(subj))
	}
	if cat.AvgTriplesPerSubject() <= 0 {
		t.Error("AvgTriplesPerSubject should be positive")
	}
}

// TestFromGraphAdvisorCounts pins the two counts the §4.1 advisor reads
// from the catalog (mean subject degree and distinct objects) on a graph
// small enough to count by hand, and the empty graph's zero degree.
func TestFromGraphAdvisorCounts(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(enginetest.Ex("s1"), enginetest.Ex("p"), enginetest.Ex("o1"))
	g.Add(enginetest.Ex("s1"), enginetest.Ex("p"), enginetest.Ex("o2"))
	g.Add(enginetest.Ex("s1"), enginetest.Ex("q"), enginetest.Ex("o1"))
	g.Add(enginetest.Ex("s2"), enginetest.Ex("p"), enginetest.Ex("o3"))
	cat := plan.FromGraph(g)
	if cat.Triples != 4 || cat.Subjects != 2 {
		t.Errorf("catalog = %d triples / %d subjects, want 4 / 2", cat.Triples, cat.Subjects)
	}
	if avg := cat.AvgTriplesPerSubject(); avg != 2 {
		t.Errorf("avg = %v, want 2", avg)
	}
	if cat.Objects != 3 {
		t.Errorf("objects = %d, want 3", cat.Objects)
	}
	if avg := plan.FromGraph(rdf.NewGraph()).AvgTriplesPerSubject(); avg != 0 {
		t.Errorf("empty avg = %v", avg)
	}
}

func TestCatalogRoundTrips(t *testing.T) {
	cat := plan.FromGraph(enginetest.BioGraph())

	var buf bytes.Buffer
	if err := cat.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := plan.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertCatalogsEqual(t, "Write/Read", cat, got)

	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := cat.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = plan.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertCatalogsEqual(t, "WriteFile/ReadFile", cat, got)

	mr := enginetest.NewMR()
	if err := cat.SaveDFS(mr.DFS(), "data/catalog"); err != nil {
		t.Fatal(err)
	}
	got, err = plan.LoadDFS(mr.DFS(), "data/catalog")
	if err != nil {
		t.Fatal(err)
	}
	assertCatalogsEqual(t, "SaveDFS/LoadDFS", cat, got)
}

func assertCatalogsEqual(t *testing.T, via string, want, got *plan.Catalog) {
	t.Helper()
	if got.Triples != want.Triples || got.Subjects != want.Subjects ||
		got.Objects != want.Objects || got.Bytes != want.Bytes {
		t.Errorf("%s: totals %+v, want %+v", via,
			[4]int64{got.Triples, got.Subjects, got.Objects, got.Bytes},
			[4]int64{want.Triples, want.Subjects, want.Objects, want.Bytes})
	}
	if len(got.Props) != len(want.Props) {
		t.Fatalf("%s: %d properties, want %d", via, len(got.Props), len(want.Props))
	}
	for k, ps := range want.Props {
		if got.Props[k] != ps {
			t.Errorf("%s: prop %s = %+v, want %+v", via, k, got.Props[k], ps)
		}
	}
}

// TestBuildCatalogMatchesExact runs the map-only statistics job over the
// DFS-resident triple relation and checks it against the exact in-memory
// scan: triple counts and byte sizes are exact, distinct counts (linear
// counting sketches) land within 2%.
func TestBuildCatalogMatchesExact(t *testing.T) {
	g := enginetest.RandomGraph(7, 6000, 400, 12, 900)
	exact := plan.FromGraph(g)

	mr := enginetest.NewMR()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	cat, err := plan.BuildCatalog(mr, input, "data/catalog", g.Dict)
	if err != nil {
		t.Fatal(err)
	}

	if cat.Triples != exact.Triples {
		t.Errorf("Triples = %d, want %d", cat.Triples, exact.Triples)
	}
	if cat.Bytes != exact.Bytes {
		t.Errorf("Bytes = %d, want %d", cat.Bytes, exact.Bytes)
	}
	checkWithin(t, "Subjects", cat.Subjects, exact.Subjects, 0.02)
	checkWithin(t, "Objects", cat.Objects, exact.Objects, 0.02)
	if len(cat.Props) != len(exact.Props) {
		t.Fatalf("%d properties, want %d", len(cat.Props), len(exact.Props))
	}
	for k, want := range exact.Props {
		got, ok := cat.Prop(k)
		if !ok {
			t.Fatalf("missing property %s", k)
		}
		if got.Triples != want.Triples {
			t.Errorf("prop %s triples = %d, want %d", k, got.Triples, want.Triples)
		}
		checkWithin(t, "prop "+k+" subjects", got.Subjects, want.Subjects, 0.02)
		checkWithin(t, "prop "+k+" objects", got.Objects, want.Objects, 0.02)
	}

	// The job persisted the catalog to the DFS for later plan-time loads.
	fromDFS, err := plan.LoadDFS(mr.DFS(), "data/catalog")
	if err != nil {
		t.Fatal(err)
	}
	assertCatalogsEqual(t, "BuildCatalog DFS persistence", cat, fromDFS)

	// The scan temporary must not linger.
	if _, err := mr.DFS().Open(input + ".catalog-scan"); err == nil {
		t.Error("catalog scan output was not cleaned up")
	}
}

func checkWithin(t *testing.T, what string, got, want int64, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %d, want 0", what, got)
		}
		return
	}
	if math.Abs(float64(got-want))/float64(want) > tol {
		t.Errorf("%s = %d, want %d ±%.0f%%", what, got, want, tol*100)
	}
}

// TestBuildCatalogStateUnderFaultsMatchesFaultFree: failed and retried
// attempts of the catalog scan count nothing — the exact sums come from the
// winning attempts' counters and a re-added value leaves a sketch bitmap as
// it was — so a scan under seeded faults builds the fault-free state, every
// sum and every bitmap.
func TestBuildCatalogStateUnderFaultsMatchesFaultFree(t *testing.T) {
	g := enginetest.RandomGraph(7, 6000, 400, 12, 900)
	// build scans g with the fault plan and returns the state and how many
	// task attempts beyond the first the scan ran.
	build := func(faults *mapreduce.FaultPlan) (*plan.CatalogState, int) {
		t.Helper()
		tr := trace.New()
		mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4, BlockSize: 1 << 16}), mapreduce.EngineConfig{
			SplitRecords: 512, TaskMaxAttempts: 8, Faults: faults, Tracer: tr,
		})
		const input = "data/triples"
		if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
			t.Fatal(err)
		}
		st, err := plan.BuildCatalogState(mr, input, g.Dict)
		if err != nil {
			t.Fatal(err)
		}
		retries := 0
		for _, root := range tr.Roots() {
			root.Walk(func(s *trace.Span, _ int) {
				if s.Kind == trace.KindTask && s.Attempt > 0 {
					retries++
				}
			})
		}
		return st, retries
	}
	want, _ := build(nil)
	if want.Triples != int64(len(g.Triples)) {
		t.Fatalf("fault-free Triples = %d, want %d", want.Triples, len(g.Triples))
	}
	for _, seed := range []int64{1, 2, 3, 7} {
		got, retries := build(&mapreduce.FaultPlan{Rate: 0.05, Seed: seed})
		if retries == 0 {
			t.Errorf("seed %d: no attempt was retried; the test is vacuous", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: state under faults differs: triples %d bytes %d, want %d and %d",
				seed, got.Triples, got.Bytes, want.Triples, want.Bytes)
		}
	}
}
