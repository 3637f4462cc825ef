// Ingest parity: every catalog query, on every engine family, run over a
// base load plus ingested delta blocks (the query-time overlay) must be
// byte-identical to running the same engine over a from-scratch reload of
// the merged dataset — before and after compaction. The incremental dataset
// version must equal the fresh reload's graph version at every step.
package integration

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
)

const ingestInput = "data/triples"

func ingestEngines() []engine.QueryEngine {
	return []engine.QueryEngine{
		relmr.NewPig(),
		relmr.NewHive(),
		ntgamr.NewEager(),
		ntgamr.NewLazy(),
	}
}

// splitNTSources renders a graph as N-Triples and splits the text into a
// base source plus nDeltas tail batches (the last ~10% of the lines), so a
// parse of base+deltas in order reproduces the full graph exactly.
func splitNTSources(t *testing.T, g *rdf.Graph, nDeltas int) (base string, deltas []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	lines := strings.SplitAfter(strings.TrimRight(buf.String(), "\n"), "\n")
	tail := len(lines) / 10
	if tail < nDeltas {
		tail = nDeltas
	}
	cut := len(lines) - tail
	base = strings.Join(lines[:cut], "")
	per := tail / nDeltas
	for i := 0; i < nDeltas; i++ {
		from := cut + i*per
		to := from + per
		if i == nDeltas-1 {
			to = len(lines)
		}
		deltas = append(deltas, strings.Join(lines[from:to], ""))
	}
	return base, deltas
}

func newIngestMR() *mapreduce.Engine {
	return mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 6}),
		mapreduce.EngineConfig{DefaultReducers: 4, SplitRecords: 1024},
	)
}

// mustSameResult asserts two engine results are byte-identical: same count,
// same rows in the same order, same final-file record and byte sizes.
func mustSameResult(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if got.IsCount != want.IsCount || got.Count != want.Count {
		t.Errorf("%s: count mismatch: got %v/%d, want %v/%d",
			label, got.IsCount, got.Count, want.IsCount, want.Count)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("%s: rows differ from fresh-reload run:\n%s",
			label, query.DiffRows(want.Rows, got.Rows, 6))
	}
	if got.OutputRecords != want.OutputRecords || got.OutputBytes != want.OutputBytes {
		t.Errorf("%s: final output %d records / %d bytes, fresh reload %d / %d",
			label, got.OutputRecords, got.OutputBytes, want.OutputRecords, want.OutputBytes)
	}
}

func TestIngestOverlayCatalogParity(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest parity sweep")
	}
	type prepared struct {
		gMerged *rdf.Graph
		base    string
		deltas  []string
	}
	cache := map[string]prepared{}
	for _, cq := range bench.Catalog() {
		cq := cq
		t.Run(cq.ID, func(t *testing.T) {
			pr, ok := cache[cq.Dataset]
			if !ok {
				g, err := bench.Dataset(cq.Dataset, 1, 42)
				if err != nil {
					t.Fatal(err)
				}
				base, deltas := splitNTSources(t, g, 2)
				gMerged, err := rdf.ReadNTriples(strings.NewReader(base + strings.Join(deltas, "")))
				if err != nil {
					t.Fatal(err)
				}
				pr = prepared{gMerged: gMerged, base: base, deltas: deltas}
				cache[cq.Dataset] = pr
			}
			q := enginetest.Compile(t, pr.gMerged, cq.Src)
			want := refengine.Evaluate(q, pr.gMerged)
			for _, eng := range ingestEngines() {
				// Fresh-reload oracle: the merged dataset loaded from scratch.
				oracle := newIngestMR()
				if err := engine.LoadGraph(oracle.DFS(), ingestInput, pr.gMerged); err != nil {
					t.Fatal(err)
				}
				fresh, err := engine.Run(eng, oracle, q, plan.Source{Base: ingestInput})
				if err != nil {
					t.Fatalf("%s fresh run: %v", eng.Name(), err)
				}
				if !fresh.IsCount && !query.RowsEqual(want, fresh.Rows) {
					t.Fatalf("%s fresh run diverges from reference:\n%s",
						eng.Name(), query.DiffRows(want, fresh.Rows, 6))
				}

				// Incremental path: base load, then the deltas ingested.
				mr := newIngestMR()
				gBase, err := rdf.ReadNTriples(strings.NewReader(pr.base))
				if err != nil {
					t.Fatal(err)
				}
				if err := engine.LoadGraph(mr.DFS(), ingestInput, gBase); err != nil {
					t.Fatal(err)
				}
				st, err := ingest.Init(mr.DFS(), ingestInput, gBase)
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range pr.deltas {
					if _, err := st.Ingest(strings.NewReader(d)); err != nil {
						t.Fatalf("%s ingest delta %d: %v", eng.Name(), i, err)
					}
				}
				if st.Version() != pr.gMerged.Version() {
					t.Fatalf("%s: incremental version %s != fresh reload %s",
						eng.Name(), st.Version(), pr.gMerged.Version())
				}
				overlay, err := engine.Run(eng, mr, q, plan.Source{Base: ingestInput, Deltas: st.DeltaFiles()})
				if err != nil {
					t.Fatalf("%s overlay run: %v", eng.Name(), err)
				}
				mustSameResult(t, eng.Name()+" overlay", overlay, fresh)

				// Compaction folds the chain; the same query over the new base
				// (no deltas left) must still match byte-for-byte.
				if _, err := st.Compact(mr, ingest.CompactOptions{Prune: true}); err != nil {
					t.Fatalf("%s compact: %v", eng.Name(), err)
				}
				if st.Version() != pr.gMerged.Version() {
					t.Fatalf("%s: compaction changed the version", eng.Name())
				}
				post, err := engine.Run(eng, mr, q, plan.Source{Base: st.Base(), Deltas: st.DeltaFiles()})
				if err != nil {
					t.Fatalf("%s post-compact run: %v", eng.Name(), err)
				}
				mustSameResult(t, eng.Name()+" post-compact", post, fresh)
			}
		})
	}
}

// TestIngestOverlaySelSJFirst covers the completion-mapper path (the one
// engine whose mappers dispatch on input file names): both its O-S and O-O
// plan shapes over base+delta must match a fresh merged reload.
func TestIngestOverlaySelSJFirst(t *testing.T) {
	queries := []string{
		`PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`,
		`PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`,
	}
	g := enginetest.BioGraph()
	base, deltas := splitNTSources(t, g, 2)
	gMerged, err := rdf.ReadNTriples(strings.NewReader(base + strings.Join(deltas, "")))
	if err != nil {
		t.Fatal(err)
	}
	eng := relmr.NewSelSJFirst()
	for qi, src := range queries {
		q := enginetest.Compile(t, gMerged, src)
		oracle := newIngestMR()
		if err := engine.LoadGraph(oracle.DFS(), ingestInput, gMerged); err != nil {
			t.Fatal(err)
		}
		fresh, err := engine.Run(eng, oracle, q, plan.Source{Base: ingestInput})
		if err != nil {
			t.Fatalf("query %d fresh: %v", qi, err)
		}

		mr := newIngestMR()
		gBase, err := rdf.ReadNTriples(strings.NewReader(base))
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.LoadGraph(mr.DFS(), ingestInput, gBase); err != nil {
			t.Fatal(err)
		}
		st, err := ingest.Init(mr.DFS(), ingestInput, gBase)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			if _, err := st.Ingest(strings.NewReader(d)); err != nil {
				t.Fatal(err)
			}
		}
		overlay, err := engine.Run(eng, mr, q, plan.Source{Base: ingestInput, Deltas: st.DeltaFiles()})
		if err != nil {
			t.Fatalf("query %d overlay: %v", qi, err)
		}
		mustSameResult(t, eng.Name(), overlay, fresh)
		if !query.RowsEqual(refengine.Evaluate(q, gMerged), overlay.Rows) {
			t.Errorf("query %d overlay diverges from reference", qi)
		}
	}
}

// TestIngestMakesLayoutStale is the fallback contract (satellite): a layout
// valid at the base version flips to hdfs.ErrLayoutStale after one ingest —
// exactly the ntga-run path, which then warns and runs the flat shuffle
// overlay with correct rows. Compaction with layout maintenance restores a
// validating layout.
func TestIngestMakesLayoutStale(t *testing.T) {
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	base, deltas := splitNTSources(t, g, 1)
	mr := newIngestMR()
	gBase, err := rdf.ReadNTriples(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.LoadGraph(mr.DFS(), ingestInput, gBase); err != nil {
		t.Fatal(err)
	}
	st, err := ingest.Init(mr.DFS(), ingestInput, gBase)
	if err != nil {
		t.Fatal(err)
	}
	const dir = "part/T"
	if _, err := plan.BuildPartitionLayout(mr, ingestInput, dir, layoutBuckets, st.Version()); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version()); err != nil {
		t.Fatalf("layout should validate before ingest: %v", err)
	}
	if _, err := st.Ingest(strings.NewReader(deltas[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version()); !errors.Is(err, hdfs.ErrLayoutStale) {
		t.Fatalf("layout after ingest: err = %v, want ErrLayoutStale", err)
	}

	// The ntga-run fallback: part stays nil, the flat overlay runs instead.
	cq, err := bench.Lookup("Q1a")
	if err != nil {
		t.Fatal(err)
	}
	gMerged, err := rdf.ReadNTriples(strings.NewReader(base + deltas[0]))
	if err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, gMerged, cq.Src)
	res, err := engine.Run(ntgamr.NewLazy(), mr, q, plan.Source{Base: ingestInput, Deltas: st.DeltaFiles()})
	if err != nil {
		t.Fatal(err)
	}
	if !query.RowsEqual(refengine.Evaluate(q, gMerged), res.Rows) {
		t.Error("fallback overlay run diverges from reference")
	}
	if res.Workflow.TotalMapOutputBytes() == 0 {
		t.Error("fallback run moved no shuffle bytes; it did not take the shuffle path")
	}

	// Compacting with layout maintenance re-validates the layout and the
	// map-only path works again at the current version.
	if _, err := st.Compact(mr, ingest.CompactOptions{LayoutDir: dir}); err != nil {
		t.Fatal(err)
	}
	part, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version())
	if err != nil {
		t.Fatalf("layout after compaction: %v", err)
	}
	res2, err := engine.Run(ntgamr.NewLazy(), mr, q, plan.Source{Base: st.Base(), Deltas: st.DeltaFiles(), Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if !query.RowsEqual(refengine.Evaluate(q, gMerged), res2.Rows) {
		t.Error("post-compaction map-only run diverges from reference")
	}
	if res2.Workflow.TotalMapOutputBytes() != 0 {
		t.Errorf("post-compaction partitioned run shuffled %d bytes, want 0",
			res2.Workflow.TotalMapOutputBytes())
	}
}
