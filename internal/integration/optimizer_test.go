// End-to-end check of the cost-based join-order optimizer: on the B7
// benchmark query (three stars meeting on ?prod, with the selective review
// star written last) the optimizer must pick a different order than the
// compile-time one, every engine must return exactly the legacy rows under
// that order, and the measured shuffle volume must not regress.
package integration

import (
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
	"ntga/internal/sparql"
)

func TestOptimizerReordersB7EndToEnd(t *testing.T) {
	cq, err := bench.Lookup("B7")
	if err != nil {
		t.Fatal(err)
	}
	g, err := bench.Dataset(cq.Dataset, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cat := plan.FromGraph(g)

	compile := func() *query.Query {
		pq, err := sparql.Parse(cq.Src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Compile(pq, g.Dict)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	legacyQ := compile()
	optQ := compile()
	r, err := plan.Optimize(cat, optQ)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Changed {
		t.Fatalf("optimizer kept the legacy order %v for B7", r.Order)
	}
	if r.Est >= r.LegacyEst {
		t.Fatalf("chosen order %v estimated at %d, not below legacy %d", r.Order, r.Est, r.LegacyEst)
	}

	want := refengine.Evaluate(legacyQ, g)
	if len(want) == 0 {
		t.Fatal("B7 returns no rows on the seeded dataset — the comparison is vacuous")
	}
	engines := []engine.QueryEngine{relmr.NewPig(), relmr.NewHive(), ntgamr.NewEager(), ntgamr.NewLazy()}
	for _, eng := range engines {
		legacyShuffle := runMeasured(t, eng, g, legacyQ, want)
		optShuffle := runMeasured(t, eng, g, optQ, want)
		if optShuffle > legacyShuffle {
			t.Errorf("%s: optimized order shuffled %d bytes, legacy %d — optimizer made it worse",
				eng.Name(), optShuffle, legacyShuffle)
		} else {
			t.Logf("%s: shuffle %d -> %d bytes (estimated %d -> %d)",
				eng.Name(), legacyShuffle, optShuffle, r.LegacyEst, r.Est)
		}
	}
}

// runMeasured executes the query on a fresh cluster, checks the rows
// against the reference, and returns the measured shuffle bytes.
func runMeasured(t *testing.T, eng engine.QueryEngine, g *rdf.Graph, q *query.Query, want []query.Row) int64 {
	t.Helper()
	mr := enginetest.NewMR()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
	if err != nil {
		t.Fatalf("%s.Run: %v", eng.Name(), err)
	}
	if !query.RowsEqual(want, res.Rows) {
		t.Errorf("%s rows differ from reference:\n%s",
			eng.Name(), query.DiffRows(want, res.Rows, 8))
	}
	return res.Workflow.TotalMapOutputBytes()
}
