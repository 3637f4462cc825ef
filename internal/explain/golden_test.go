package explain_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

var update = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// TestExplainGoldens pins the rendered EXPLAIN output — the estimated-cost
// table and every engine's plan — for every benchmark query, against the
// statistics catalog of the seeded CI-scale datasets. Regenerate with
// `make goldens` (go test ./internal/explain -update) after intentional
// planner or cost-model changes.
//
// Each query is priced twice: once compiled against the dataset dictionary
// (the execution path) and once against an empty dictionary (the
// `ntga-run -explain -stats` path, where only the persisted catalog
// exists).
// Both renderings must match the golden byte for byte — the planner's view
// may not depend on having the data loaded.
func TestExplainGoldens(t *testing.T) {
	graphs := map[string]*rdf.Graph{}
	cats := map[string]*plan.Catalog{}
	for _, cq := range bench.Catalog() {
		cq := cq
		t.Run(cq.ID, func(t *testing.T) {
			g, ok := graphs[cq.Dataset]
			if !ok {
				var err error
				g, err = bench.Dataset(cq.Dataset, 1, 42)
				if err != nil {
					t.Fatal(err)
				}
				graphs[cq.Dataset] = g
				cats[cq.Dataset] = plan.FromGraph(g)
			}
			cat := cats[cq.Dataset]

			// The partitioned view plans against an 8-bucket hash-of-subject
			// layout; the version is empty exactly as in a stats-only plan,
			// and String() does not render it, so the goldens stay stable.
			part, err := plan.NewPartitioning(plan.PartitionKeySubject, 8, "part/T", "")
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []struct {
				suffix string
				part   *plan.Partitioning
			}{{".golden", nil}, {".part.golden", part}} {
				full := renderWith(t, cq.Src, cat, g.Dict, variant.part)
				statsOnly := renderWith(t, cq.Src, cat, rdf.NewDict(), variant.part)
				if full != statsOnly {
					t.Errorf("stats-only explain diverges from full-graph explain (%s):\n--- full ---\n%s--- stats-only ---\n%s",
						variant.suffix, full, statsOnly)
				}

				path := filepath.Join("testdata", cq.ID+variant.suffix)
				if *update {
					if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run `make goldens`): %v", err)
				}
				if full != string(want) {
					t.Errorf("EXPLAIN output drifted from %s (run `make goldens` if intentional):\n--- got ---\n%s--- want ---\n%s",
						path, full, want)
				}
			}
		})
	}
}

func renderWith(t *testing.T, src string, cat *plan.Catalog, dict *rdf.Dict, part *plan.Partitioning) string {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Compile(pq, dict)
	if err != nil {
		t.Fatal(err)
	}
	return explain.Render(explain.ForQuery(cat, q, plan.Source{Base: explain.Input, Part: part}, explain.Engines()))
}
