// Package enginetest provides shared helpers for testing the distributed
// query engines against the reference engine: deterministic datasets,
// random graph generation, and a run-and-compare harness.
package enginetest

import (
	"fmt"
	"math/rand"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// Ex returns an IRI in the test namespace.
func Ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// BioGraph builds a small life-sciences-flavoured dataset exercising
// multi-valued properties, typed objects, literals, and cross-links — rich
// enough that every catalog query shape has non-trivial results.
func BioGraph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p string, o rdf.Term) { g.Add(Ex(s), Ex(p), o) }
	for i := 0; i < 8; i++ {
		gene := fmt.Sprintf("gene%d", i)
		add(gene, "label", rdf.NewLiteral(fmt.Sprintf("gene %d label", i)))
		add(gene, "type", Ex("Gene"))
		// Multi-valued xGO with varying multiplicity (0..3).
		for j := 0; j < i%4; j++ {
			add(gene, "xGO", Ex(fmt.Sprintf("go%d", (i+j)%5)))
		}
		if i%2 == 0 {
			add(gene, "synonym", rdf.NewLiteral(fmt.Sprintf("syn-%d", i)))
		}
		if i%3 == 0 {
			add(gene, "xRef", Ex(fmt.Sprintf("ref%d", i)))
		}
	}
	for i := 0; i < 5; i++ {
		goTerm := fmt.Sprintf("go%d", i)
		add(goTerm, "label", rdf.NewLiteral(fmt.Sprintf("go term %d", i)))
		add(goTerm, "type", Ex("GOTerm"))
		if i%2 == 0 {
			add(goTerm, "namespace", Ex("biological_process"))
		}
	}
	add("gene1", "label", rdf.NewLiteral("hexokinase"))
	add("ref0", "source", Ex("uniprot"))
	add("ref3", "source", Ex("uniprot"))
	add("ref6", "source", Ex("embl"))
	g.Dedup()
	return g
}

// RandomGraph builds a seeded random graph with tunable shape.
func RandomGraph(seed int64, nTriples, nSubj, nProp, nObj int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	for i := 0; i < nTriples; i++ {
		g.Add(
			Ex(fmt.Sprintf("s%d", rng.Intn(nSubj))),
			Ex(fmt.Sprintf("p%d", rng.Intn(nProp))),
			Ex(fmt.Sprintf("o%d", rng.Intn(nObj))),
		)
	}
	// Cross-link some objects as subjects so O-S joins have matches.
	for i := 0; i < nObj; i += 2 {
		g.Add(Ex(fmt.Sprintf("o%d", i)), Ex("p0"), Ex(fmt.Sprintf("o%d", (i+1)%nObj)))
		g.Add(Ex(fmt.Sprintf("o%d", i)), Ex(fmt.Sprintf("p%d", rng.Intn(nProp))), Ex("leaf"))
	}
	g.Dedup()
	return g
}

// NewMR builds a MapReduce engine over a roomy in-memory cluster.
func NewMR() *mapreduce.Engine {
	return mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 4, BlockSize: 1 << 16}),
		mapreduce.EngineConfig{SplitRecords: 64, DefaultReducers: 4},
	)
}

// NewSpillMR builds an engine like NewMR but with a bounded map sort buffer,
// so map output spills sorted runs to node-local disk and reducers consume an
// external merge. Used to prove the bounded-memory path is behaviorally
// identical to the in-memory one.
func NewSpillMR(sortBufferBytes int64) *mapreduce.Engine {
	return mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 4, BlockSize: 1 << 16}),
		mapreduce.EngineConfig{SplitRecords: 64, DefaultReducers: 4,
			SortBufferBytes: sortBufferBytes},
	)
}

// NewTinyMR builds an engine over a capacity-limited cluster for failure
// injection.
func NewTinyMR(capacityPerNode int64, replication int) *mapreduce.Engine {
	return mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 2, CapacityPerNode: capacityPerNode,
			BlockSize: 512, Replication: replication}),
		mapreduce.EngineConfig{SplitRecords: 64, DefaultReducers: 4},
	)
}

// Compile parses and compiles a query against the graph's dictionary.
func Compile(t *testing.T, g *rdf.Graph, src string) *query.Query {
	t.Helper()
	q, err := query.Parse(src, g.Dict)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return q
}

// RunAndCompare loads the graph, runs the engine, and fails the test if the
// engine's rows differ from the reference engine's. The result is returned
// for metric assertions.
func RunAndCompare(t *testing.T, eng engine.QueryEngine, g *rdf.Graph, src string) *engine.Result {
	t.Helper()
	return RunAndCompareOn(t, NewMR(), eng, g, src)
}

// RunAndCompareOn is RunAndCompare over a caller-built cluster (e.g. one with
// a bounded sort buffer from NewSpillMR).
func RunAndCompareOn(t *testing.T, mr *mapreduce.Engine, eng engine.QueryEngine, g *rdf.Graph, src string) *engine.Result {
	t.Helper()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	q := Compile(t, g, src)
	want := refengine.Evaluate(q, g)
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
	if err != nil {
		t.Fatalf("%s.Run: %v", eng.Name(), err)
	}
	if !query.RowsEqual(want, res.Rows) {
		t.Errorf("%s rows differ from reference on %q:\n%s",
			eng.Name(), src, query.DiffRows(want, res.Rows, 8))
	}
	// Engines must clean up their intermediates: only the input remains.
	if files := mr.DFS().List(); len(files) != 1 || files[0] != input {
		t.Errorf("%s left files behind: %v", eng.Name(), files)
	}
	return res
}
