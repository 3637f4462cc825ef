package ntgamr

import (
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
)

func TestMapOnlyPrefix(t *testing.T) {
	part, _ := plan.NewPartitioning(plan.PartitionKeySubject, 4, "part/T", "v")
	subj := query.Join{Right: query.Pos{Star: 1, Role: query.RoleSubject}}
	obj := query.Join{Right: query.Pos{Star: 2, Role: query.RoleBoundObj}}
	if got := MapOnlyPrefix(part, []query.Join{subj, subj}); got != 2 {
		t.Errorf("all-subject chain prefix = %d, want 2", got)
	}
	if got := MapOnlyPrefix(part, []query.Join{subj, obj, subj}); got != 1 {
		t.Errorf("broken chain prefix = %d, want 1", got)
	}
	if got := MapOnlyPrefix(part, []query.Join{obj}); got != 0 {
		t.Errorf("object-first chain prefix = %d, want 0", got)
	}
	if got := MapOnlyPrefix(nil, []query.Join{subj}); got != 0 {
		t.Errorf("nil partitioning prefix = %d, want 0", got)
	}
}

// TestPartitionedParity runs every test query under every strategy on the
// flat and the partitioned path and requires identical row multisets and
// counts — plus zero shuffle on the map-only cycles.
func TestPartitionedParity(t *testing.T) {
	g := enginetest.BioGraph()
	const buckets = 4
	for _, strat := range []Strategy{Eager, LazyFull, LazyPartial, LazyAuto} {
		eng := New(strat, 8)
		for _, tq := range testQueries {
			t.Run(strat.String()+"/"+tq.name, func(t *testing.T) {
				mr := enginetest.NewMR()
				const input = "data/triples"
				if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
					t.Fatal(err)
				}
				part, err := plan.BuildPartitionLayout(mr, input, "part/T", buckets, g.Version())
				if err != nil {
					t.Fatal(err)
				}
				q := enginetest.Compile(t, g, tq.src)
				flat, err := engine.Run(eng, mr, q, plan.Source{Base: input})
				if err != nil {
					t.Fatalf("flat run: %v", err)
				}
				q2 := enginetest.Compile(t, g, tq.src)
				pr, err := engine.Run(eng, mr, q2, plan.Source{Base: input, Part: part})
				if err != nil {
					t.Fatalf("partitioned run: %v", err)
				}
				if flat.IsCount != pr.IsCount || flat.Count != pr.Count {
					t.Errorf("count mismatch: flat %d, partitioned %d", flat.Count, pr.Count)
				}
				if !query.RowsEqual(flat.Rows, pr.Rows) {
					t.Errorf("rows differ:\n%s", query.DiffRows(flat.Rows, pr.Rows, 5))
				}
				// The grouping cycle never shuffles on the partitioned path,
				// and neither does any map-only join.
				prefix := MapOnlyPrefix(part, q2.Joins)
				for i, jm := range pr.Workflow.Jobs {
					if i == 0 || (i >= 1 && i-1 < prefix) {
						if !jm.MapOnly {
							t.Errorf("job %d (%s) not map-only", i, jm.Job)
						}
						if jm.MapOutputBytes != 0 {
							t.Errorf("job %d (%s) shuffled %d bytes", i, jm.Job, jm.MapOutputBytes)
						}
					}
				}
			})
		}
	}
}

// TestPartitionedFullyMapOnlyShuffleZero pins the headline property: a
// repeat-joined subject-bound query over the partitioned layout moves zero
// bytes through the shuffle (SELECT — COUNT adds a fold cycle).
func TestPartitionedFullyMapOnlyShuffleZero(t *testing.T) {
	g := enginetest.BioGraph()
	mr := enginetest.NewMR()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	part, err := plan.BuildPartitionLayout(mr, input, "part/T", 4, g.Version())
	if err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`)
	eng := NewLazy()
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Workflow.TotalMapOutputBytes(); got != 0 {
		t.Errorf("TotalMapOutputBytes = %d, want 0", got)
	}
	if len(res.Rows) == 0 {
		t.Error("query returned no rows")
	}
}

// TestPlanPartitionedShape checks the rewritten plan: map-only markers, the
// partitioning attribute, and the part-miss reason when the rewrite stops.
func TestPlanPartitionedShape(t *testing.T) {
	g := enginetest.BioGraph()
	part, err := plan.NewPartitioning(plan.PartitionKeySubject, 4, "part/T", "v")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewLazy()

	// Fully served: OS-join query.
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`)
	var cl engine.Cleaner
	p, err := engine.Plan(eng, q, plan.Source{Base: "data/triples", Part: part}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range p.Nodes() {
		if !node.MapSide {
			t.Errorf("node %s not map-side", node.Name)
		}
		if node.Part == nil {
			t.Errorf("node %s lacks partitioning attribute", node.Name)
		}
	}
	if p.PartInput != part.Dir {
		t.Errorf("PartInput = %q, want %q", p.PartInput, part.Dir)
	}

	// OO join: the join cannot be served; the node says why.
	q2 := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`)
	var cl2 engine.Cleaner
	p2, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples", Part: part}, &cl2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p2.Nodes()
	if !nodes[0].MapSide {
		t.Error("grouping node not map-side")
	}
	join := nodes[1]
	if join.MapSide {
		t.Error("unserved join marked map-side")
	}
	if join.PartReason == "" {
		t.Error("unserved join lacks a part-miss reason")
	}

	// Nil partitioning: identical to the flat plan.
	var cl3 engine.Cleaner
	p3, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples"}, &cl3)
	if err != nil {
		t.Fatal(err)
	}
	var cl4 engine.Cleaner
	p4, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples"}, &cl4)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Summary() != p4.Summary() {
		t.Errorf("nil-partitioned plan differs from flat:\n%s\nvs\n%s", p3.Summary(), p4.Summary())
	}
}
