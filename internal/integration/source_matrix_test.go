// The Source matrix: every engine of the EXPLAIN line-up over every shape a
// plan.Source can take — flat base, base + layout, base + delta chain, and
// base + chain + (stale) layout — through the one engine.Plan / engine.Run
// entry. Rows equal the reference in every cell; what differs between cells
// is only what the plan says about where T sits.
package integration

import (
	"fmt"
	"strings"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/ingest"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

func TestSourceMatrix(t *testing.T) {
	const (
		// oneStar has no inter-star join: over a layout Hive and NTGA run it
		// without any shuffle. Sel-SJ-first cannot plan it (it supports
		// exactly two bound-only stars).
		oneStar = `PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`
		// twoStar is the O-S case-study shape every engine plans; the join
		// binds the right star through its subject, the layout's key.
		twoStar = `PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`
		dir     = "part/T"
		buckets = 4
	)

	// One warehouse, two moments: base + layout + a two-block chain (the
	// layout, built at the base version, is stale by definition), then the
	// same content compacted with the layout maintained.
	base, deltas := splitNTSources(t, enginetest.BioGraph(), 2)
	gMerged, err := rdf.ReadNTriples(strings.NewReader(base + strings.Join(deltas, "")))
	if err != nil {
		t.Fatal(err)
	}
	gBase, err := rdf.ReadNTriples(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	mr := newIngestMR()
	if err := engine.LoadGraph(mr.DFS(), ingestInput, gBase); err != nil {
		t.Fatal(err)
	}
	st, err := ingest.Init(mr.DFS(), ingestInput, gBase)
	if err != nil {
		t.Fatal(err)
	}
	stalePart, err := plan.BuildPartitionLayout(mr, ingestInput, dir, buckets, st.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := st.Ingest(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	chained := plan.Source{Base: st.Base(), Deltas: st.DeltaFiles()}
	if len(chained.Deltas) != 2 {
		t.Fatalf("chain depth %d, want 2", len(chained.Deltas))
	}

	type cell struct {
		name           string
		src            plan.Source
		layout, deltas bool
	}
	cells := []cell{
		{name: "deltas", src: chained, deltas: true},
		{name: "layout+deltas", layout: true, deltas: true,
			src: plan.Source{Base: chained.Base, Deltas: chained.Deltas, Part: stalePart}},
	}
	// The chained cells run before compaction folds their files away.
	runCells := func(cells []cell) {
		for _, src := range []string{oneStar, twoStar} {
			q := enginetest.Compile(t, gMerged, src)
			want := refengine.Evaluate(q, gMerged)
			if len(want) == 0 {
				t.Fatalf("reference returns no rows for %q", src)
			}
			for _, eng := range explain.Engines() {
				for _, c := range cells {
					label := fmt.Sprintf("%s/%s/stars=%d", eng.Name(), c.name, len(q.Stars))
					var cl engine.Cleaner
					p, planErr := engine.Plan(eng, q, c.src, &cl, nil)
					res, runErr := engine.Run(eng, mr, q, c.src)
					if res == nil {
						t.Fatalf("%s: nil Result", label)
					}
					if eng.Name() == "Sel-SJ-first" && len(q.Stars) != 2 {
						// The planner's refusal does not depend on the source.
						var clFlat engine.Cleaner
						_, flatErr := engine.Plan(eng, q, plan.Source{Base: c.src.Base}, &clFlat, nil)
						if planErr == nil || runErr == nil || flatErr == nil ||
							planErr.Error() != flatErr.Error() || runErr.Error() != flatErr.Error() {
							t.Errorf("%s: plan err %v, run err %v, flat plan err %v; want one planner error",
								label, planErr, runErr, flatErr)
						}
						continue
					}
					if planErr != nil || runErr != nil {
						t.Fatalf("%s: plan err %v, run err %v", label, planErr, runErr)
					}
					if !query.RowsEqual(want, res.Rows) {
						t.Errorf("%s: rows differ from reference:\n%s", label, query.DiffRows(want, res.Rows, 6))
					}

					summary := p.Summary()
					if got := p.Nodes()[0].Kind == plan.KindDeltaUnion; got != c.deltas {
						t.Errorf("%s: delta-union node = %v, want %v\n%s", label, got, c.deltas, summary)
					}
					stale := c.layout && c.deltas
					if got := strings.Contains(summary, `part-miss="layout stale: 2 uncompacted delta blocks"`); got != stale {
						t.Errorf("%s: stale-layout part-miss = %v, want %v\n%s", label, got, stale, summary)
					}

					mapOnly := 0
					for _, jm := range res.Workflow.Jobs {
						if jm.MapOnly {
							mapOnly++
						}
					}
					noShuffle := mapOnly > 0 && res.Workflow.TotalMapOutputBytes() == 0
					// Both queries bind through subjects, so NTGA's whole chain
					// is map-side; Hive's join cycles always shuffle.
					ntga := strings.HasPrefix(eng.Name(), "NTGA")
					layoutAware := ntga || eng.Name() == "Hive"
					wantNoShuffle := c.layout && !c.deltas && (ntga || (layoutAware && len(q.Joins) == 0))
					if noShuffle != wantNoShuffle {
						t.Errorf("%s: %d map-only jobs, %d shuffle bytes; want shuffle-free = %v",
							label, mapOnly, res.Workflow.TotalMapOutputBytes(), wantNoShuffle)
					}

					if !layoutAware && c.layout && !c.deltas {
						// Pig and Sel-SJ-first ignore the layout outright.
						var clFlat engine.Cleaner
						flat, err := engine.Plan(eng, q, plan.Source{Base: c.src.Base}, &clFlat, nil)
						if err != nil {
							t.Fatalf("%s: flat plan: %v", label, err)
						}
						if flat.Summary() != summary {
							t.Errorf("%s: plan changes with a layout:\n%s\nvs flat:\n%s", label, summary, flat.Summary())
						}
					}
				}
			}
		}
	}
	runCells(cells)

	if _, err := st.Compact(mr, ingest.CompactOptions{LayoutDir: dir}); err != nil {
		t.Fatal(err)
	}
	part, err := plan.LoadPartitioning(mr.DFS(), dir, st.Version())
	if err != nil {
		t.Fatalf("layout after compaction: %v", err)
	}
	runCells([]cell{
		{name: "flat", src: plan.Source{Base: st.Base()}},
		{name: "layout", src: plan.Source{Base: st.Base(), Part: part}, layout: true},
	})
}
