package plan_test

import (
	"strings"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/relmr"
)

const irQuery = `SELECT * WHERE {
  ?g <http://ex/label> ?l . ?g <http://ex/xGO> ?go .
  ?go <http://ex/label> ?gl . ?go <http://ex/type> <http://ex/GOTerm> .
}`

// TestSummaryNormalizesTempNames plans the same query twice: the
// process-global temp-name counter gives the stages different DFS names,
// but Summary must render both plans identically (that is what makes the
// EXPLAIN goldens stable).
func TestSummaryNormalizesTempNames(t *testing.T) {
	g := enginetest.BioGraph()
	q := enginetest.Compile(t, g, irQuery)
	for _, eng := range []engine.QueryEngine{ntgamr.NewLazy(), relmr.NewPig(), relmr.NewHive()} {
		var cl1, cl2 engine.Cleaner
		p1, err := engine.Plan(eng, q, plan.Source{Base: "T"}, &cl1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := engine.Plan(eng, q, plan.Source{Base: "T"}, &cl2)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := p1.Summary(), p2.Summary()
		if s1 != s2 {
			t.Errorf("%s: summaries diverge across plannings:\n%s\nvs\n%s", eng.Name(), s1, s2)
		}
		if strings.Contains(s1, eng.Name()+".") {
			t.Errorf("%s: summary leaks raw temp names:\n%s", eng.Name(), s1)
		}
		if !strings.Contains(s1, "<- T") {
			t.Errorf("%s: summary does not show the normalized input:\n%s", eng.Name(), s1)
		}
	}
}

func TestPhysicalCountsAndLower(t *testing.T) {
	g := enginetest.BioGraph()
	q := enginetest.Compile(t, g, irQuery)
	var cl engine.Cleaner
	p, err := engine.Plan(ntgamr.NewLazy(), q, plan.Source{Base: "T"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cycles(); got != 2 {
		t.Errorf("Cycles = %d, want 2 (group + one join)", got)
	}
	if got := p.ScanCount(); got != 1 {
		t.Errorf("ScanCount = %d, want 1 (single grouping scan)", got)
	}
	stages, err := p.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != len(p.Stages) {
		t.Fatalf("Lower produced %d stages, want %d", len(stages), len(p.Stages))
	}

	// A node without a prepared job cannot lower.
	p.Stages[0][0].Job = nil
	if _, err := p.Lower(); err == nil {
		t.Error("Lower accepted a node with no job")
	}
}
