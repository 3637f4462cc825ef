// Spill integration: every engine, run under a deliberately tiny map
// sort-buffer budget, must produce bindings identical to the in-memory
// reference evaluator — the bounded-memory shuffle (spill + external merge)
// is behavior-preserving all the way up the stack.
package integration

import (
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/refengine"
)

// spillQuery joins two stars with an unbound-property slot and a filter —
// enough shuffle volume that a 256B sort buffer forces every map task to
// spill and every reduce partition to run an external merge.
const spillQuery = `PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?s ex:p0 ?o1 .
  ?s ?u ?x .
  ?o1 ex:p1 ?o2 .
  FILTER(?x != ex:o3)
}`

func TestSpillBoundedBufferMatchesReference(t *testing.T) {
	g := enginetest.RandomGraph(41, 400, 40, 4, 24)
	q := enginetest.Compile(t, g, spillQuery)
	want := refengine.Evaluate(q, g)
	if len(want) == 0 {
		t.Fatal("spill query has no reference results; pick a different seed")
	}
	for _, eng := range allEngines() {
		t.Run(eng.Name(), func(t *testing.T) {
			mr := enginetest.NewSpillMR(256)
			if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
			if err != nil {
				t.Fatalf("%s under 256B sort buffer: %v", eng.Name(), err)
			}
			if !query.RowsEqual(want, res.Rows) {
				t.Errorf("%s rows differ from reference under spilling:\n%s",
					eng.Name(), query.DiffRows(want, res.Rows, 8))
			}
			if spilled := res.Workflow.TotalSpilledBytes(); spilled == 0 {
				t.Errorf("%s: TotalSpilledBytes = 0, want > 0 under a 256B budget", eng.Name())
			}
			if passes := res.Workflow.TotalMergePasses(); passes < 1 {
				t.Errorf("%s: TotalMergePasses = %d, want >= 1", eng.Name(), passes)
			}
			// The bounded run must not leak spill runs or part files.
			if files := mr.DFS().List(); len(files) != 1 || files[0] != "in" {
				t.Errorf("%s left files behind: %v", eng.Name(), files)
			}
			if disk := mr.DFS().SpillUsed(); disk != 0 {
				t.Errorf("%s left %d bytes of local spill in use", eng.Name(), disk)
			}
		})
	}
}

// TestSpillUnboundedIsZero pins the default regime: with no budget set,
// nothing spills and no merge passes run, for every engine.
func TestSpillUnboundedIsZero(t *testing.T) {
	g := enginetest.RandomGraph(41, 400, 40, 4, 24)
	q := enginetest.Compile(t, g, spillQuery)
	for _, eng := range allEngines() {
		mr := enginetest.NewMR()
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if s := res.Workflow.TotalSpilledBytes(); s != 0 {
			t.Errorf("%s: spilled %d bytes with an unbounded buffer", eng.Name(), s)
		}
		if p := res.Workflow.TotalMergePasses(); p != 0 {
			t.Errorf("%s: %d merge passes with an unbounded buffer", eng.Name(), p)
		}
	}
}
