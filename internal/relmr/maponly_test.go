package relmr

import (
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
)

// TestHivePartitionedParity runs every catalog query on the flat and the
// partitioned Hive plan (binary and text wire) and requires identical row
// multisets — with every star-join cycle map-only and shuffle-free.
func TestHivePartitionedParity(t *testing.T) {
	g := enginetest.BioGraph()
	for _, eng := range []*Relational{NewHive(), NewHiveText()} {
		for _, tq := range testQueries {
			t.Run(eng.Name()+"/"+tq.name, func(t *testing.T) {
				mr := enginetest.NewMR()
				const input = "data/triples"
				if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
					t.Fatal(err)
				}
				part, err := plan.BuildPartitionLayout(mr, input, "part/T", 4, g.Version())
				if err != nil {
					t.Fatal(err)
				}
				flat, err := engine.Run(eng, mr, enginetest.Compile(t, g, tq.src), plan.Source{Base: input})
				if err != nil {
					t.Fatalf("flat run: %v", err)
				}
				q := enginetest.Compile(t, g, tq.src)
				pr, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
				if err != nil {
					t.Fatalf("partitioned run: %v", err)
				}
				if flat.Count != pr.Count {
					t.Errorf("count mismatch: flat %d, partitioned %d", flat.Count, pr.Count)
				}
				if !query.RowsEqual(flat.Rows, pr.Rows) {
					t.Errorf("rows differ:\n%s", query.DiffRows(flat.Rows, pr.Rows, 5))
				}
				// One map-only star-join per star, all shuffle-free.
				for i := range q.Stars {
					jm := pr.Workflow.Jobs[i]
					if !jm.MapOnly {
						t.Errorf("star cycle %d (%s) not map-only", i, jm.Job)
					}
					if jm.MapOutputBytes != 0 {
						t.Errorf("star cycle %d (%s) shuffled %d bytes", i, jm.Job, jm.MapOutputBytes)
					}
				}
			})
		}
	}
}

// TestHivePlanPartitionedShape pins the rewritten plan: map-side star joins
// over the layout directory, and a part-miss reason on the first relational
// join (its key is a binding, not the subject hash).
func TestHivePlanPartitionedShape(t *testing.T) {
	g := enginetest.BioGraph()
	part, err := plan.NewPartitioning(plan.PartitionKeySubject, 4, "part/T", "v")
	if err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, testQueries[2].src) // two stars OS join
	var cl engine.Cleaner
	p, err := engine.Plan(NewHive(), q, plan.Source{Base: "in", Part: part}, &cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("plan has %d nodes, want 3", len(nodes))
	}
	for _, node := range nodes[:2] {
		if !node.MapSide || node.Part == nil {
			t.Errorf("star node %s not rewritten map-side", node.Name)
		}
		if node.Inputs[0] != part.Dir {
			t.Errorf("star node %s reads %q, want layout dir", node.Name, node.Inputs[0])
		}
	}
	if nodes[2].MapSide {
		t.Error("relational join marked map-side")
	}
	if nodes[2].PartReason == "" {
		t.Error("relational join lacks a part-miss reason")
	}

	// Pig ignores the layout entirely (the SPLIT pass discards it).
	var cl2 engine.Cleaner
	pp, err := engine.Plan(NewPig(), q, plan.Source{Base: "in", Part: part}, &cl2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range pp.Nodes() {
		if node.MapSide {
			t.Errorf("pig node %s map-side", node.Name)
		}
	}

	// Nil partitioning falls back to the flat plan.
	var cl3 engine.Cleaner
	pf, err := engine.Plan(NewHive(), q, plan.Source{Base: "in"}, &cl3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cl4 engine.Cleaner
	flat, err := engine.Plan(NewHive(), q, plan.Source{Base: "in"}, &cl4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Summary() != flat.Summary() {
		t.Errorf("nil-partitioned plan differs from flat:\n%s\nvs\n%s", pf.Summary(), flat.Summary())
	}
}
