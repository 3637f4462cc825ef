package plan_test

import (
	"strings"
	"testing"

	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
)

const advBound = `SELECT * WHERE {
  ?g <http://ex/label> ?l . ?g <http://ex/type> ?ty .
}`

const advUnbound = `SELECT * WHERE {
  ?g <http://ex/label> ?l . ?g ?p ?x .
}`

func TestAdviseUnnestRejectsBadReducers(t *testing.T) {
	g := enginetest.BioGraph()
	q := enginetest.Compile(t, g, advBound)
	for _, reducers := range []int{0, -1, -100} {
		_, err := plan.AdviseUnnest(3, 100, q, reducers)
		if err == nil {
			t.Fatalf("reducers=%d: want error, got none", reducers)
		}
		if !strings.Contains(err.Error(), "positive reducer count") {
			t.Errorf("reducers=%d: unexpected error %v", reducers, err)
		}
	}
}

func TestAdviseUnnestRejectsEmptyQuery(t *testing.T) {
	for _, q := range []*query.Query{nil, {}} {
		_, err := plan.AdviseUnnest(3, 100, q, 4)
		if err == nil {
			t.Fatal("want error for star-less query, got none")
		}
		if !strings.Contains(err.Error(), "at least one star") {
			t.Errorf("unexpected error %v", err)
		}
	}
}

func TestAdviseUnnestHeuristics(t *testing.T) {
	g := enginetest.BioGraph()
	bound := enginetest.Compile(t, g, advBound)
	unbound := enginetest.Compile(t, g, advUnbound)

	// No unbound-property patterns: nothing to delay, eager wins.
	a, err := plan.AdviseUnnest(8, 1000, bound, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lazy || a.Expected != 0 {
		t.Errorf("bound query: got Lazy=%v Expected=%g, want eager with 0 candidates", a.Lazy, a.Expected)
	}

	// High subject degree with an unbound slot: delay the unnest.
	a, err = plan.AdviseUnnest(8, 1000, unbound, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Lazy {
		t.Errorf("unbound query at degree 8: want lazy, got %+v", a)
	}
	if a.PhiM < 4 || a.PhiM > plan.DefaultPhiM {
		t.Errorf("PhiM = %d, want within [reducers, DefaultPhiM]", a.PhiM)
	}

	// Tiny candidate sets: lazy machinery saves nothing.
	a, err = plan.AdviseUnnest(1.2, 1000, unbound, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lazy {
		t.Errorf("degree 1.2: want eager, got %+v", a)
	}

	// φ_m clamps up to the reducer count.
	a, err = plan.AdviseUnnest(8, 10, unbound, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.PhiM != 64 {
		t.Errorf("PhiM = %d, want clamp to 64 reducers", a.PhiM)
	}
}

func TestAdviseUnnestSelectiveObjectStaysEager(t *testing.T) {
	g := enginetest.BioGraph()
	cat := plan.FromGraph(g)
	unbound := enginetest.Compile(t, g, advUnbound)
	exact := enginetest.Compile(t, g, `SELECT * WHERE {
  ?g <http://ex/label> ?l . ?g ?p ?o . FILTER(?o = <http://ex/go1>)
}`)

	// Unrestricted object at the graph's real subject degree: lazy, with
	// reasons and φ_m within [reducers, DefaultPhiM].
	a, err := plan.AdviseUnnest(cat.AvgTriplesPerSubject(), cat.Objects, unbound, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Lazy {
		t.Errorf("unbound advice = %+v, want lazy", a)
	}
	if a.PhiM < 8 || a.PhiM > plan.DefaultPhiM {
		t.Errorf("PhiM = %d out of bounds", a.PhiM)
	}
	if len(a.Reasons) == 0 {
		t.Error("advice without reasons")
	}

	// An exact object admits one candidate per slot: eager again.
	a, err = plan.AdviseUnnest(cat.AvgTriplesPerSubject(), cat.Objects, exact, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lazy {
		t.Errorf("exact-object advice = %+v, want eager", a)
	}
}

func TestAdviseUnnestPhiMMonotoneInObjects(t *testing.T) {
	q := enginetest.Compile(t, enginetest.BioGraph(), advUnbound)
	prev := 0
	for _, objects := range []int64{10, 1000, 100000} {
		a, err := plan.AdviseUnnest(40, objects, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.PhiM < prev {
			t.Errorf("PhiM decreased: %d after %d (objects=%d)", a.PhiM, prev, objects)
		}
		prev = a.PhiM
	}
	if prev != plan.DefaultPhiM {
		t.Errorf("large dataset PhiM = %d, want clamp at %d", prev, plan.DefaultPhiM)
	}
}
