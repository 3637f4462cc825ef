package ntgamr

import (
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/refengine"
)

// batchSources is a mixed batch: single star, unbound single star, two-star
// join on unbound object, and a three-star chain.
var batchSources = []string{
	`PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`,
	`PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`,
	`PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`,
	`PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:xRef ?r . ?g ex:xGO ?go .
  ?go ex:type ?t .
  ?r ex:source ?src .
}`,
}

func TestRunBatchMatchesIndividualRuns(t *testing.T) {
	g := enginetest.BioGraph()
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for _, src := range batchSources {
		qs = append(qs, enginetest.Compile(t, g, src))
	}
	for _, eng := range []*NTGA{NewLazy(), NewEager(), New(LazyPartial, 4)} {
		res, err := eng.RunBatch(mr, qs, "in")
		if err != nil {
			t.Fatalf("%s RunBatch: %v", eng.Name(), err)
		}
		if len(res.Results) != len(qs) {
			t.Fatalf("%s: %d results for %d queries", eng.Name(), len(res.Results), len(qs))
		}
		for qi, q := range qs {
			want := refengine.Evaluate(q, g)
			got := res.Results[qi].Rows
			if !query.RowsEqual(want, got) {
				t.Errorf("%s query %d rows differ:\n%s", eng.Name(), qi,
					query.DiffRows(want, got, 6))
			}
		}
		// Everything cleaned up.
		if files := mr.DFS().List(); len(files) != 1 {
			t.Errorf("%s left files: %v", eng.Name(), files)
		}
	}
}

func TestRunBatchSharesTheScan(t *testing.T) {
	g := enginetest.BioGraph()
	var qs []*query.Query
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	for _, src := range batchSources {
		qs = append(qs, enginetest.Compile(t, g, src))
	}
	inputSize, err := mr.DFS().FileSize("in")
	if err != nil {
		t.Fatal(err)
	}
	lazy := NewLazy()
	batch, err := lazy.RunBatch(mr, qs, "in")
	if err != nil {
		t.Fatal(err)
	}
	// The triple relation is scanned exactly once: the grouping job's map
	// input equals the input size.
	if got := batch.Workflow.Jobs[0].MapInputBytes; got != inputSize {
		t.Errorf("batch grouping scanned %d bytes, want %d (one full scan)", got, inputSize)
	}
	// Individually, every query scans the input once → 4× the read volume
	// on the triple relation.
	var individualInputReads int64
	for _, q := range qs {
		res, err := engine.Run(lazy, mr, q, plan.Source{Base: "in"})
		if err != nil {
			t.Fatal(err)
		}
		individualInputReads += res.Workflow.Jobs[0].MapInputBytes
	}
	if individualInputReads != int64(len(qs))*inputSize {
		t.Errorf("individual runs scanned %d bytes, want %d", individualInputReads,
			int64(len(qs))*inputSize)
	}
}

func TestRunBatchCountQueries(t *testing.T) {
	g := enginetest.BioGraph()
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`PREFIX ex: <http://ex/>
SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`,
		`PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:synonym ?s . }`,
	}
	var qs []*query.Query
	for _, src := range srcs {
		qs = append(qs, enginetest.Compile(t, g, src))
	}
	res, err := NewLazy().RunBatch(mr, qs, "in")
	if err != nil {
		t.Fatal(err)
	}
	wantCount := int64(len(refengine.Evaluate(qs[0], g)))
	if !res.Results[0].IsCount || res.Results[0].Count != wantCount {
		t.Errorf("batch count = %d (isCount=%v), want %d",
			res.Results[0].Count, res.Results[0].IsCount, wantCount)
	}
	wantRows := refengine.Evaluate(qs[1], g)
	if !query.RowsEqual(wantRows, res.Results[1].Rows) {
		t.Errorf("batch rows differ: %s", query.DiffRows(wantRows, res.Results[1].Rows, 5))
	}
}

func TestRunBatchEmpty(t *testing.T) {
	mr := enginetest.NewMR()
	if _, err := NewLazy().RunBatch(mr, nil, "in"); err == nil {
		t.Error("empty batch accepted")
	}
}
