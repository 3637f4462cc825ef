package relmr

import (
	"fmt"
	"strings"
	"testing"

	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// catalog of query shapes both engines must answer correctly.
var testQueries = []struct {
	name string
	src  string
}{
	{"single bound star", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`},
	{"single star with unbound", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`},
	{"two stars OS join", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`},
	{"B1: join on unbound object", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`},
	{"B2: unbound with partially bound object", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t .
  FILTER(?x != ex:go1)
}`},
	{"B3: double unbound in one star", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x . ?g ?q ?y .
  ?x ex:type ?t .
  FILTER(?y != ex:go0)
}`},
	{"B4: non-joining unbound", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:xGO ?go . ?g ?p ?o .
  ?go ex:type ?t .
}`},
	{"OO join", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`},
	{"constant subject", `
PREFIX ex: <http://ex/>
SELECT ?p ?o WHERE { ex:gene2 ?p ?o . }`},
	{"constant subject joined to star", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ex:gene2 ?p ?x .
  ?x ex:label ?xl . ?x ex:type ?t .
}`},
	{"contains filter", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ?p ?o . FILTER(CONTAINS(?o, "hexokinase")) }`},
	{"three star chain", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:xRef ?r . ?g ex:xGO ?go .
  ?go ex:type ?t .
  ?r ex:source ?src .
}`},
	{"empty result", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:absentprop ?x . }`},
}

func TestPigAndHiveMatchReference(t *testing.T) {
	g := enginetest.BioGraph()
	for _, eng := range []engine.QueryEngine{NewPig(), NewHive()} {
		for _, tc := range testQueries {
			t.Run(eng.Name()+"/"+tc.name, func(t *testing.T) {
				enginetest.RunAndCompare(t, eng, g, tc.src)
			})
		}
	}
}

func TestPigAndHiveOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := enginetest.RandomGraph(seed, 300, 20, 6, 30)
		src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:p0 ?x . ?a ?p ?y .
  ?x ex:p0 ?z .
}`
		for _, eng := range []engine.QueryEngine{NewPig(), NewHive()} {
			t.Run(fmt.Sprintf("%s/seed%d", eng.Name(), seed), func(t *testing.T) {
				enginetest.RunAndCompare(t, eng, g, src)
			})
		}
	}
}

func TestWorkflowShapes(t *testing.T) {
	g := enginetest.BioGraph()
	twoStar := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`
	// Hive: 2 star-join cycles + 1 join = 3 cycles, 2 full scans of input.
	res := enginetest.RunAndCompare(t, NewHive(), g, twoStar)
	if res.Workflow.Cycles != 3 {
		t.Errorf("Hive cycles = %d, want 3", res.Workflow.Cycles)
	}
	// Pig: split + 2 star-joins + 1 join = 4 cycles.
	res = enginetest.RunAndCompare(t, NewPig(), g, twoStar)
	if res.Workflow.Cycles != 4 {
		t.Errorf("Pig cycles = %d, want 4", res.Workflow.Cycles)
	}
	// Plan-level scan accounting (Figure 3): Hive scans input per star.
	var cl engine.Cleaner
	p, err := engine.Plan(NewHive(), enginetest.Compile(t, g, twoStar), plan.Source{Base: "in"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if scans := p.ScanCount(); scans != 2 {
		t.Errorf("Hive full scans = %d, want 2", scans)
	}
	p, err = engine.Plan(NewPig(), enginetest.Compile(t, g, twoStar), plan.Source{Base: "in"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if scans := p.ScanCount(); scans != 1 {
		t.Errorf("Pig full scans = %d, want 1 (split job only)", scans)
	}
}

func TestSelSJFirstOSPlan(t *testing.T) {
	g := enginetest.BioGraph()
	src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`
	res := enginetest.RunAndCompare(t, NewSelSJFirst(), g, src)
	if res.Workflow.Cycles != 2 {
		t.Errorf("Sel-SJ-first O-S cycles = %d, want 2", res.Workflow.Cycles)
	}
	var cl engine.Cleaner
	p, err := engine.Plan(NewSelSJFirst(), enginetest.Compile(t, g, src), plan.Source{Base: "in"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if scans := p.ScanCount(); scans != 2 {
		t.Errorf("Sel-SJ-first O-S full scans = %d, want 2", scans)
	}
}

func TestSelSJFirstOOPlan(t *testing.T) {
	g := enginetest.BioGraph()
	src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`
	res := enginetest.RunAndCompare(t, NewSelSJFirst(), g, src)
	if res.Workflow.Cycles != 3 {
		t.Errorf("Sel-SJ-first O-O cycles = %d, want 3", res.Workflow.Cycles)
	}
	var cl engine.Cleaner
	p, err := engine.Plan(NewSelSJFirst(), enginetest.Compile(t, g, src), plan.Source{Base: "in"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if scans := p.ScanCount(); scans != 3 {
		t.Errorf("Sel-SJ-first O-O full scans = %d, want 3 (the case study's point)", scans)
	}
}

func TestSelSJFirstRejectsUnsupported(t *testing.T) {
	g := enginetest.BioGraph()
	cases := []string{
		// Unbound star.
		`PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ?p ?x . ?x ex:type ?t . }`,
		// Single star.
		`PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . }`,
	}
	for _, src := range cases {
		q := enginetest.Compile(t, g, src)
		var cl engine.Cleaner
		if _, err := engine.Plan(NewSelSJFirst(), q, plan.Source{Base: "in"}, &cl); err == nil {
			t.Errorf("Plan(%q) succeeded, want error", src)
		}
	}
}

func TestRelationalDiskFullFailure(t *testing.T) {
	// A double-unbound star on a tiny cluster: the cross-product tuples
	// overflow the disk, reproducing the paper's ✗ bars. gene0 gets 30
	// extra triples, so its double-unbound star alone expands to ~900
	// tuples.
	g := enginetest.BioGraph()
	for i := 0; i < 30; i++ {
		g.Add(enginetest.Ex("gene0"), enginetest.Ex(fmt.Sprintf("attr%d", i)),
			enginetest.Ex(fmt.Sprintf("val%d", i)))
	}
	g.Add(enginetest.Ex("val0"), enginetest.Ex("type"), enginetest.Ex("Thing"))
	mr := enginetest.NewTinyMR(6*1024, 2)
	if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x . ?g ?q ?y .
  ?x ex:type ?t .
}`)
	res, err := engine.Run(NewHive(), mr, q, plan.Source{Base: "in"})
	if err == nil {
		t.Fatal("expected disk-full failure")
	}
	if !mapreduce.ErrIsDiskFull(err) {
		t.Fatalf("err = %v, want disk-full", err)
	}
	if !res.Workflow.Failed || res.Workflow.FailedJob == "" {
		t.Errorf("workflow not marked failed: %+v", res.Workflow)
	}
	// Cleanup must have removed intermediates even on failure.
	if files := mr.DFS().List(); len(files) != 1 {
		t.Errorf("files after failed run: %v", files)
	}
}

func TestTupleEncodeDecode(t *testing.T) {
	tp := Tuple{
		{Star: 0, Subject: 5, PatIdxs: []int{0, 1, 2}, Pairs: []core.PO{{P: 1, O: 2}, {P: 3, O: 4}, {P: 5, O: 6}}},
		{Star: 1, Subject: 9, PatIdxs: []int{1}, Pairs: []core.PO{{P: 7, O: 8}}},
	}
	got, err := DecodeTuple(EncodeTuple(tp))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Subject != 5 || got[1].Star != 1 {
		t.Errorf("roundtrip = %+v", got)
	}
	if len(got[0].Pairs) != 3 || got[0].Pairs[2] != (core.PO{P: 5, O: 6}) {
		t.Errorf("pairs = %v", got[0].Pairs)
	}
	if _, err := DecodeTuple([]byte{9, 9}); err == nil {
		t.Error("corrupt tuple decoded")
	}
	if _, err := DecodeTuple(append(EncodeTuple(tp), 1)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestTupleJoinValueErrors(t *testing.T) {
	g := enginetest.BioGraph()
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?x . ?x ex:type ?t . }`)
	tp := Tuple{{Star: 0, Subject: 3, PatIdxs: []int{0}, Pairs: []core.PO{{P: 1, O: 2}}}}
	if _, err := tp.joinValue(q, query.Pos{Star: 1, Role: query.RoleSubject}); err == nil {
		t.Error("missing segment accepted")
	}
	if _, err := tp.joinValue(q, query.Pos{Star: 0, Role: query.RoleBoundObj, Idx: 1}); err == nil {
		t.Error("missing pattern accepted")
	}
	if v, err := tp.joinValue(q, query.Pos{Star: 0, Role: query.RoleSubject}); err != nil || v != 3 {
		t.Errorf("subject joinValue = %d, %v", v, err)
	}
}

// TestOutputRecordCountsShowRedundancy checks the headline effect: for an
// unbound-property star over a subject with multi-valued properties, the
// relational engines materialize the full cross product.
func TestOutputRecordCountsShowRedundancy(t *testing.T) {
	g := rdf.NewGraph()
	add := func(s, p string, o rdf.Term) { g.Add(enginetest.Ex(s), enginetest.Ex(p), o) }
	add("gene9", "label", rdf.NewLiteral("rxr"))
	for i := 0; i < 4; i++ {
		add("gene9", "xGO", enginetest.Ex(fmt.Sprintf("go%d", i)))
	}
	add("gene9", "synonym", rdf.NewLiteral("s1"))
	res := enginetest.RunAndCompare(t, NewHive(), g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`)
	// 1 label × 4 xGO × 6 triples = 24 expanded tuples.
	if res.OutputRecords != 24 {
		t.Errorf("OutputRecords = %d, want 24", res.OutputRecords)
	}
	want := refengine.Evaluate(enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`), g)
	if len(want) != 24 {
		t.Fatalf("reference rows = %d, want 24", len(want))
	}
}

func TestStrings(t *testing.T) {
	if !strings.Contains(NewPig().Name(), "Pig") || !strings.Contains(NewSelSJFirst().Name(), "Sel") {
		t.Error("engine names unexpected")
	}
}
