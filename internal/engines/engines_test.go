package engines_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/engines"
	"ntga/internal/enginetest"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/refengine"
)

const unboundSrc = `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`

func TestChooseAutoFollowsAdvisor(t *testing.T) {
	g := enginetest.BioGraph()
	cat := plan.FromGraph(g)
	q := enginetest.Compile(t, g, unboundSrc)
	for _, reducers := range []int{4, 8, 32} {
		c, advice, r, err := engines.Choose(cat, q, "auto", 0, reducers, false)
		if err != nil {
			t.Fatal(err)
		}
		if !advice.Lazy || c.Engine != "ntga-lazy" || c.PhiM != advice.PhiM {
			t.Errorf("reducers=%d: choice %+v for advice %+v", reducers, c, advice)
		}
		if c.PhiM < reducers {
			t.Errorf("reducers=%d: φ_m %d below the reducer count", reducers, c.PhiM)
		}
		if r != nil || c.Reordered {
			t.Errorf("reducers=%d: reordered without optimize", reducers)
		}
	}
	// An explicit φ_m wins over the advised one; a concrete name is kept.
	c, _, _, err := engines.Choose(cat, q, "auto", 3, 8, false)
	if err != nil || c.PhiM != 3 {
		t.Errorf("auto with phiM=3: %+v, %v", c, err)
	}
	c, _, _, err = engines.Choose(cat, q, "hive", 0, 8, false)
	if err != nil || c.Engine != "hive" || c.PhiM != 0 {
		t.Errorf("hive: %+v, %v", c, err)
	}
}

func TestChooseRejectsUnknownEngine(t *testing.T) {
	g := enginetest.BioGraph()
	q := enginetest.Compile(t, g, unboundSrc)
	_, advice, r, err := engines.Choose(plan.FromGraph(g), q, "nope", 0, 8, true)
	if err == nil || !strings.Contains(err.Error(), `unknown engine "nope"`) {
		t.Fatalf("err = %v", err)
	}
	// The advice and the reorder are still reported beside the error.
	if len(advice.Reasons) == 0 || r == nil {
		t.Errorf("advice %+v, reorder %v", advice, r)
	}
}

func TestApplySetsOrderAndRejectsBadOrder(t *testing.T) {
	g := enginetest.BioGraph()
	src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
  ?r ex:source ?src . ?g ex:xRef ?r .
}`
	q := enginetest.Compile(t, g, src)
	// Star 1 is the hub: starting there is a valid order the compiler
	// does not produce.
	order := []int{1, 0, 2}
	if reflect.DeepEqual(order, query.JoinOrder(q.Joins, len(q.Stars))) {
		t.Fatalf("order %v is the compile-time order", order)
	}
	want, err := q.JoinsForOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	c := engines.Choice{Engine: "ntga-lazy", Order: order, Reordered: true}
	eng, err := c.Apply(q)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "NTGA-Lazy" {
		t.Errorf("engine = %s", eng.Name())
	}
	if !reflect.DeepEqual(q.Joins, want) {
		t.Errorf("Apply joins = %v, want %v", q.Joins, want)
	}

	q = enginetest.Compile(t, g, src)
	bad := engines.Choice{Engine: "ntga-lazy", Order: []int{0}, Reordered: true}
	if _, err := bad.Apply(q); err == nil || !strings.Contains(err.Error(), "applying join order") {
		t.Errorf("bad order: err = %v", err)
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
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`)
	c, advice, _, err := engines.Choose(plan.FromGraph(g), q, "auto", 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !advice.Lazy || c.Engine != "ntga-lazy" {
		t.Fatalf("choice = %+v (%v)", c, advice.Reasons)
	}
	advisedEng, err := c.Apply(q)
	if err != nil {
		t.Fatal(err)
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
	advised := run(advisedEng)
	want := refengine.Evaluate(q, g)
	if !query.RowsEqual(want, advised.Rows) {
		t.Fatalf("advised engine differs from reference:\n%s", query.DiffRows(want, advised.Rows, 5))
	}
	full := run(ntgamr.New(ntgamr.LazyFull, 0))
	joinShuffle := func(r *engine.Result) int64 {
		return r.Workflow.Jobs[len(r.Workflow.Jobs)-1].MapOutputBytes
	}
	if joinShuffle(advised) > joinShuffle(full) {
		t.Errorf("advised join shuffle (%d) exceeds full unnest (%d)",
			joinShuffle(advised), joinShuffle(full))
	}
}
