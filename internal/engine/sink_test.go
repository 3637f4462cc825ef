package engine_test

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
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

// decoderCounter is a QueryEngine that counts the decoders its result sink
// makes: one per task attempt of the final job that collects an encoded
// record.
type decoderCounter struct {
	engine.QueryEngine
	made atomic.Int64
}

func (d *decoderCounter) Decoder(q *query.Query) engine.DecodeFunc {
	d.made.Add(1)
	return d.QueryEngine.Decoder(q)
}

// runOn loads g into a fresh cluster — with a subject-bucketed layout of
// that many buckets when buckets > 0 — and runs q on eng there, in the sunk
// or the persisted form. It also returns how many decoders the run's result
// sink made.
func runOn(t *testing.T, g *rdf.Graph, eng engine.QueryEngine, q *query.Query,
	cfg mapreduce.EngineConfig, buckets int, persist bool) (*engine.Result, int64) {
	t.Helper()
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), cfg)
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	src := plan.Source{Base: "in"}
	if buckets > 0 {
		part, err := plan.BuildPartitionLayout(mr, "in", "part/T", buckets, g.Version())
		if err != nil {
			t.Fatal(err)
		}
		src.Part = part
	}
	before := mr.DFS().ListPrefix("")
	run := engine.Run
	if persist {
		run = engine.RunPersisted
	}
	counted := &decoderCounter{QueryEngine: eng}
	res, err := run(counted, mr, q, src)
	if err != nil {
		t.Fatalf("%s (persist %v): %v", eng.Name(), persist, err)
	}
	if files := mr.DFS().ListPrefix(""); !slices.Equal(files, before) {
		t.Fatalf("%s (persist %v): files left behind: %v", eng.Name(), persist, files)
	}
	return res, counted.made.Load()
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
		res, _ := runOn(t, g, eng, q, mapreduce.EngineConfig{
			Slots: engine.NSlots(4), SplitRecords: 256, DefaultReducers: reducers}, 0, false)
		return res
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

// TestSinkMatchesPersisted: for every engine and BSBM catalog query, flat
// and over an 8-bucket layout (where the NTGA engines end in a map-only join
// or, for one star, in the grouping cycle), the sunk form and the persisted
// form return the same rows in the same order and the same final output.
// Only the final job differs: persisted, it writes exactly the final output
// to the DFS; sunk, it writes nothing. Every earlier job is untouched. A
// sunk NTGA final operator hands its records to the sink as components, so
// its sink decodes nothing; a persisted one, or a relational engine's,
// decodes what it collects.
func TestSinkMatchesPersisted(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.EngineConfig{Slots: engine.NSlots(2), SplitRecords: 1024, DefaultReducers: 4}
	// The catalog has no one-star and no COUNT(*) query over BSBM: add one
	// of each, so a grouping cycle and a count fold end a plan too.
	const prefix = "PREFIX bsbm: <http://bsbm.example.org/>\n"
	cqs := []bench.CatalogQuery{
		{ID: "one-star", Src: prefix + `SELECT * WHERE { ?prod bsbm:label ?l . ?prod ?p ?x . }`},
		{ID: "count", Src: prefix + `SELECT (COUNT(*) AS ?n) WHERE {
  ?prod bsbm:label ?l . ?prod ?p ?x . ?x bsbm:label ?xl . }`},
	}
	for _, cq := range bench.Catalog() {
		if cq.Dataset == "bsbm" {
			cqs = append(cqs, cq)
		}
	}
	for _, buckets := range []int{0, 8} {
		for _, cq := range cqs {
			q := enginetest.Compile(t, g, cq.Src)
			for _, eng := range explain.Engines() {
				if !plans(eng, q) {
					continue
				}
				label := fmt.Sprintf("%s on %s, %d buckets", eng.Name(), cq.ID, buckets)
				sunk, sunkDecoders := runOn(t, g, eng, q, cfg, buckets, false)
				kept, keptDecoders := runOn(t, g, eng, q, cfg, buckets, true)
				matchSunkAndPersisted(t, label, sunk, kept)
				_, ntga := eng.(*ntgamr.NTGA)
				switch {
				case ntga && !q.IsCount() && sunkDecoders != 0:
					t.Errorf("%s sunk: the sink made %d decoders, want none", label, sunkDecoders)
				case (!ntga || q.IsCount()) && sunk.OutputRecords > 0 && sunkDecoders == 0:
					t.Errorf("%s sunk: the sink made no decoder for encoded records", label)
				}
				if kept.OutputRecords > 0 && keptDecoders == 0 {
					t.Errorf("%s persisted: the sink made no decoder", label)
				}
			}
		}
	}
}

// matchSunkAndPersisted compares one query's sunk and persisted runs: rows
// and their order, the final output's counts, and every job's counts.
func matchSunkAndPersisted(t *testing.T, label string, sunk, kept *engine.Result) {
	t.Helper()
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
	for i := range sj {
		s, k := sj[i], kj[i]
		if s.MapInputRecords != k.MapInputRecords || s.MapInputBytes != k.MapInputBytes ||
			s.MapOutputRecords != k.MapOutputRecords || s.MapOutputBytes != k.MapOutputBytes ||
			!maps.Equal(s.Counters, k.Counters) {
			t.Errorf("%s: job %d (%s): input, shuffle or counters differ between the forms", label, i, s.Job)
		}
		if i < last && (s.Sunk || s.ReduceOutputRecords != k.ReduceOutputRecords || s.ReduceOutputBytes != k.ReduceOutputBytes) {
			t.Errorf("%s: job %d (%s) output differs between the forms", label, i, s.Job)
		}
	}
}
