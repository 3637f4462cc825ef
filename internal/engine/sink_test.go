package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ntga/internal/bench"
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

// plans reports whether eng can plan q (Sel-SJ-first plans bound-only
// two-star queries alone).
func plans(eng engine.QueryEngine, q *query.Query) bool {
	_, err := engine.Plan(eng, q, plan.Source{Base: "in"}, new(engine.Cleaner))
	return err == nil
}

// runOn loads g into a fresh cluster and runs q on eng there, in the sunk
// or the persisted form.
func runOn(t *testing.T, g *rdf.Graph, eng engine.QueryEngine, q *query.Query,
	cfg mapreduce.EngineConfig, persist bool) *engine.Result {
	t.Helper()
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), cfg)
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	run := engine.Run
	if persist {
		run = engine.RunPersisted
	}
	res, err := run(eng, mr, q, plan.Source{Base: "in"})
	if err != nil {
		t.Fatalf("%s (persist %v): %v", eng.Name(), persist, err)
	}
	if files := mr.DFS().ListPrefix(""); len(files) != 1 || files[0] != "in" {
		t.Fatalf("%s (persist %v): files left behind: %v", eng.Name(), persist, files)
	}
	return res
}

// TestEnginesSinkInTaskOrder: every engine's rows come out in task order,
// so the number of CPUs decoding them does not change them by one byte,
// and with one reducer or eight they are the reference engine's rows.
func TestEnginesSinkInTaskOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("engine sweep; TestSinkKeepsTaskOrder holds the order in -short")
	}
	// Subjects and objects share one pool of nodes, so joins are dense and
	// every engine's final job has many records across its tasks.
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
	run := func(eng engine.QueryEngine, q *query.Query, cpus, reducers int) *engine.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
		return runOn(t, g, eng, q, mapreduce.EngineConfig{
			Slots: engine.NSlots(4), SplitRecords: 256, DefaultReducers: reducers}, false)
	}
	ran := make(map[string]int)
	for _, src := range srcs {
		q := enginetest.Compile(t, g, src)
		want := refengine.Evaluate(q, g)
		for _, eng := range explain.Engines() {
			if !plans(eng, q) {
				continue
			}
			ran[eng.Name()]++
			for _, reducers := range []int{1, 8} {
				label := fmt.Sprintf("%s %q, %d reducers", eng.Name(), src, reducers)
				one, many := run(eng, q, 1, reducers), run(eng, q, 4, reducers)
				if q.IsCount() {
					if one.Count != int64(len(want)) || many.Count != one.Count {
						t.Errorf("%s: count %d / %d, want %d", label, one.Count, many.Count, len(want))
					}
					continue
				}
				if !slices.EqualFunc(one.Rows, many.Rows, query.Row.Equal) {
					t.Errorf("%s: rows on 4 CPUs differ from 1 CPU's", label)
				}
				if !query.RowsEqual(want, many.Rows) {
					t.Errorf("%s: %s", label, query.DiffRows(want, many.Rows, 4))
				}
			}
		}
	}
	for _, eng := range explain.Engines() {
		if ran[eng.Name()] == 0 {
			t.Errorf("%s ran no query", eng.Name())
		}
	}
}

// TestSinkMatchesPersisted: for every engine and BSBM catalog query, the
// sunk form and the persisted form return the same rows in the same order
// and the same final output. Only the final job differs: persisted, it
// writes exactly the final output to the DFS; sunk, it writes nothing.
// Every earlier job is untouched.
func TestSinkMatchesPersisted(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.EngineConfig{Slots: engine.NSlots(2), SplitRecords: 1024, DefaultReducers: 4}
	for _, cq := range bench.Catalog() {
		if cq.Dataset != "bsbm" {
			continue
		}
		q := enginetest.Compile(t, g, cq.Src)
		for _, eng := range explain.Engines() {
			if !plans(eng, q) {
				continue
			}
			label := fmt.Sprintf("%s on %s", eng.Name(), cq.ID)
			sunk, kept := runOn(t, g, eng, q, cfg, false), runOn(t, g, eng, q, cfg, true)
			if !slices.EqualFunc(sunk.Rows, kept.Rows, query.Row.Equal) || sunk.Count != kept.Count {
				t.Errorf("%s: %d rows (count %d) sunk, %d (count %d) persisted",
					label, len(sunk.Rows), sunk.Count, len(kept.Rows), kept.Count)
			}
			if sunk.OutputRecords != kept.OutputRecords || sunk.OutputBytes != kept.OutputBytes {
				t.Errorf("%s: output %d records / %d bytes sunk, %d / %d persisted", label,
					sunk.OutputRecords, sunk.OutputBytes, kept.OutputRecords, kept.OutputBytes)
			}
			sj, kj := sunk.Workflow.Jobs, kept.Workflow.Jobs
			if len(sj) != len(kj) {
				t.Fatalf("%s: %d jobs sunk, %d persisted", label, len(sj), len(kj))
			}
			last := len(sj) - 1
			if f := kj[last]; f.Sunk || f.ReduceOutputBytes != kept.OutputBytes || f.ReduceOutputRecords != kept.OutputRecords {
				t.Errorf("%s persisted: final job sunk=%v wrote %d records / %d bytes, want %d / %d", label,
					f.Sunk, f.ReduceOutputRecords, f.ReduceOutputBytes, kept.OutputRecords, kept.OutputBytes)
			}
			if f := sj[last]; !f.Sunk || f.ReduceOutputBytes != 0 || f.ReduceOutputRecords != 0 {
				t.Errorf("%s sunk: final job sunk=%v wrote %d records / %d bytes, want nothing", label,
					f.Sunk, f.ReduceOutputRecords, f.ReduceOutputBytes)
			}
			for i := range last {
				if sj[i].Sunk || sj[i].ReduceOutputBytes != kj[i].ReduceOutputBytes ||
					sj[i].MapOutputBytes != kj[i].MapOutputBytes || sj[i].MapInputBytes != kj[i].MapInputBytes {
					t.Errorf("%s: job %d (%s) differs between the forms", label, i, sj[i].Job)
				}
			}
			if sj[last].MapOutputBytes != kj[last].MapOutputBytes || sj[last].MapInputBytes != kj[last].MapInputBytes {
				t.Errorf("%s: the final job's input or shuffle differs between the forms", label)
			}
		}
	}
}
