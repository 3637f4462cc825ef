package ntgamr

import (
	"fmt"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

func TestCollectStats(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(enginetest.Ex("s1"), enginetest.Ex("p"), enginetest.Ex("o1"))
	g.Add(enginetest.Ex("s1"), enginetest.Ex("p"), enginetest.Ex("o2"))
	g.Add(enginetest.Ex("s1"), enginetest.Ex("q"), enginetest.Ex("o1"))
	g.Add(enginetest.Ex("s2"), enginetest.Ex("p"), enginetest.Ex("o3"))
	s := CollectStats(g)
	if s.Triples != 4 || s.Subjects != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgTriplesPerSubject != 2 {
		t.Errorf("avg = %v, want 2", s.AvgTriplesPerSubject)
	}
	if s.MaxPropertyMultiplicity != 2 {
		t.Errorf("max mult = %d, want 2", s.MaxPropertyMultiplicity)
	}
	if s.DistinctObjects != 3 {
		t.Errorf("objects = %d, want 3", s.DistinctObjects)
	}
	if empty := CollectStats(rdf.NewGraph()); empty.AvgTriplesPerSubject != 0 {
		t.Errorf("empty avg = %v", empty.AvgTriplesPerSubject)
	}
}

func TestAdviseStrategySelection(t *testing.T) {
	g := enginetest.BioGraph()
	stats := CollectStats(g)

	// Bound-only query: Eager (nothing to delay).
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`)
	a, err := Advise(stats, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != Eager {
		t.Errorf("bound-only advice = %v, want Eager (%v)", a.Strategy, a.Reasons)
	}

	// Unbound with unrestricted object and real subject degree: LazyAuto.
	q = enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`)
	a, err = Advise(stats, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != LazyAuto {
		t.Errorf("unbound advice = %v, want LazyAuto (%v)", a.Strategy, a.Reasons)
	}
	if a.PhiM < 8 || a.PhiM > DefaultPhiM {
		t.Errorf("PhiM = %d out of bounds", a.PhiM)
	}
	if len(a.Reasons) == 0 {
		t.Error("advice without reasons")
	}

	// Unbound with an exact object: Eager again (one candidate).
	q = enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . FILTER(?o = ex:go1) }`)
	a, err = Advise(stats, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != Eager {
		t.Errorf("exact-object advice = %v, want Eager (%v)", a.Strategy, a.Reasons)
	}
}

func TestAdvisePhiMMonotoneInObjects(t *testing.T) {
	q := enginetest.Compile(t, enginetest.BioGraph(), `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`)
	prev := 0
	for _, objects := range []int64{10, 1000, 100000} {
		stats := DataStats{Triples: 10 * objects, Subjects: objects / 4,
			AvgTriplesPerSubject: 40, DistinctObjects: objects}
		a, err := Advise(stats, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.PhiM < prev {
			t.Errorf("PhiM decreased: %d after %d (objects=%d)", a.PhiM, prev, objects)
		}
		prev = a.PhiM
	}
	if prev != DefaultPhiM {
		t.Errorf("large dataset PhiM = %d, want clamp at %d", prev, DefaultPhiM)
	}
}

func TestAdvisedEngineIsCorrectAndLean(t *testing.T) {
	// The advised configuration must stay correct and must not ship more
	// join-shuffle bytes than the naive full unnest on a redundancy-heavy
	// workload.
	g := enginetest.BioGraph()
	for i := 0; i < 40; i++ {
		g.Add(enginetest.Ex("gene0"), enginetest.Ex(fmt.Sprintf("attr%d", i)),
			enginetest.Ex(fmt.Sprintf("go%d", i%5)))
	}
	g.Dedup()
	src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`
	q := enginetest.Compile(t, g, src)
	advice, err := Advise(CollectStats(g), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if advice.Strategy != LazyAuto {
		t.Fatalf("advice = %v (%v)", advice.Strategy, advice.Reasons)
	}

	run := func(eng engine.QueryEngine) *engine.Result {
		mr := enginetest.NewMR()
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		return res
	}
	advised := run(advice.Engine())
	want := refengine.Evaluate(q, g)
	if !query.RowsEqual(want, advised.Rows) {
		t.Fatalf("advised engine differs from reference:\n%s", query.DiffRows(want, advised.Rows, 5))
	}
	full := run(New(LazyFull, 0))
	joinShuffle := func(r *engine.Result) int64 {
		return r.Workflow.Jobs[len(r.Workflow.Jobs)-1].MapOutputBytes
	}
	if joinShuffle(advised) > joinShuffle(full) {
		t.Errorf("advised join shuffle (%d) exceeds full unnest (%d)",
			joinShuffle(advised), joinShuffle(full))
	}
}
