package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// TestEnginesDecodeInFileOrder: every engine's final file, decoded by one
// range or by several, gives the same rows in the same order, and they are
// the reference engine's rows.
func TestEnginesDecodeInFileOrder(t *testing.T) {
	// Subjects and objects share one pool of nodes, so joins are dense and
	// every engine writes enough final records for several ranges.
	rng := rand.New(rand.NewSource(7))
	g := rdf.NewGraph()
	node := func() rdf.Term { return enginetest.Ex(fmt.Sprintf("n%d", rng.Intn(600))) }
	for i := 0; i < 6000; i++ {
		g.Add(node(), enginetest.Ex(fmt.Sprintf("p%d", rng.Intn(4))), node())
	}
	g.Dedup()
	srcs := []string{
		`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:p1 ?o . ?s ?p ?x . ?o ex:p0 ?y . }`,
		`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:p0 ?o . ?s ex:p2 ?z . ?o ex:p1 ?x . ?o ex:p0 ?y . }`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p1 ?o . ?s ?p ?x . ?o ex:p0 ?y . }`,
	}
	// Decode cuts a file into at most one range per CPU.
	run := func(eng engine.QueryEngine, q *query.Query, cpus int) *engine.Result {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
			mapreduce.EngineConfig{MapParallelism: 4, SplitRecords: 256, DefaultReducers: 4})
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		return res
	}
	ran := make(map[string]int)
	for _, src := range srcs {
		q := enginetest.Compile(t, g, src)
		want := refengine.Evaluate(q, g)
		for _, eng := range explain.Engines() {
			if _, err := engine.Plan(eng, q, plan.Source{Base: "in"}, new(engine.Cleaner), nil); err != nil {
				continue // Sel-SJ-first plans bound-only two-star queries alone
			}
			ran[eng.Name()]++
			one, many := run(eng, q, 1), run(eng, q, 4)
			if q.IsCount() {
				if one.Count != int64(len(want)) || many.Count != one.Count {
					t.Errorf("%s %q: count %d / %d, want %d", eng.Name(), src, one.Count, many.Count, len(want))
				}
				continue
			}
			if many.OutputRecords < 2*512 { // 2×minDecodeRange
				t.Fatalf("%s %q: %d final records, too few for two ranges", eng.Name(), src, many.OutputRecords)
			}
			if !slices.EqualFunc(one.Rows, many.Rows, query.Row.Equal) {
				t.Errorf("%s %q: rows decoded by several ranges differ from one range's", eng.Name(), src)
			}
			if !query.RowsEqual(want, many.Rows) {
				t.Errorf("%s %q: %s", eng.Name(), src, query.DiffRows(want, many.Rows, 4))
			}
		}
	}
	for _, eng := range explain.Engines() {
		if ran[eng.Name()] == 0 {
			t.Errorf("%s ran no query", eng.Name())
		}
	}
}
