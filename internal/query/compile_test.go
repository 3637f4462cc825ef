package query

import (
	"strings"
	"testing"

	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// testGraph builds a small dataset whose dictionary the compiler resolves
// against.
func testGraph() *rdf.Graph {
	g := rdf.NewGraph()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	g.Add(ex("gene9"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	g.Add(ex("gene9"), ex("xGO"), ex("go1"))
	g.Add(ex("gene9"), ex("xGO"), ex("go9"))
	g.Add(ex("gene9"), ex("synonym"), rdf.NewLiteral("RCoR-1"))
	g.Add(ex("gene9"), ex("xRef"), ex("hs2131"))
	g.Add(ex("go1"), ex("label"), rdf.NewLiteral("transcription"))
	g.Add(ex("go1"), ex("type"), ex("GOTerm"))
	g.Add(ex("hexokinase"), ex("label"), rdf.NewLiteral("hexokinase enzyme"))
	return g
}

func compile(t *testing.T, src string) *Query {
	t.Helper()
	g := testGraph()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Compile(pq, g.Dict)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return q
}

func TestCompileStarDecomposition(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ex:xGO ?go .
  ?g ?p ?o .
  ?go ex:type ?t .
}`)
	if len(q.Stars) != 2 {
		t.Fatalf("stars = %d, want 2", len(q.Stars))
	}
	s0, s1 := q.Stars[0], q.Stars[1]
	if s0.SubjVar != "g" || s1.SubjVar != "go" {
		t.Errorf("subjects = %q, %q", s0.SubjVar, s1.SubjVar)
	}
	if len(s0.Bound) != 2 || len(s0.Slots) != 1 {
		t.Errorf("star0: %d bound, %d slots", len(s0.Bound), len(s0.Slots))
	}
	if !s0.HasUnbound() || s1.HasUnbound() {
		t.Errorf("HasUnbound: s0=%v s1=%v", s0.HasUnbound(), s1.HasUnbound())
	}
	if len(s1.Bound) != 1 || s1.NPatterns() != 1 {
		t.Errorf("star1: %d bound, %d patterns", len(s1.Bound), s1.NPatterns())
	}
	if len(s0.BoundProps()) != 2 {
		t.Errorf("BoundProps = %v", s0.BoundProps())
	}
	// Join: star0's xGO object var ?go = star1's subject.
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %d, want 1", len(q.Joins))
	}
	j := q.Joins[0]
	if j.Var != "go" {
		t.Errorf("join var = %q", j.Var)
	}
	if j.Left != (Pos{Star: 0, Role: RoleBoundObj, Idx: 1}) {
		t.Errorf("join left = %v", j.Left)
	}
	if j.Right != (Pos{Star: 1, Role: RoleSubject}) {
		t.Errorf("join right = %v", j.Right)
	}
}

func TestCompileJoinOnUnboundObject(t *testing.T) {
	// B1-style: the unbound-property pattern's object joins to star 2.
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ?p ?x .
  ?x ex:type ?t .
}`)
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	j := q.Joins[0]
	if j.Left != (Pos{Star: 0, Role: RoleSlotObj, Idx: 0}) {
		t.Errorf("join left = %v, want slot-object", j.Left)
	}
}

func TestCompileConstantsAndFilters(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT ?g WHERE {
  ?g ex:label "retinoid X receptor" .
  ?g ?p ?o .
  FILTER(?o != ex:go1)
  FILTER(?p != ex:label)
}`)
	st := q.Stars[0]
	if st.Bound[0].OVar != "" {
		t.Errorf("constant object has OVar %q", st.Bound[0].OVar)
	}
	if _, exact := st.Bound[0].Obj.Exact(); !exact {
		t.Errorf("constant object pred = %v, want exact", st.Bound[0].Obj)
	}
	sl := st.Slots[0]
	if sl.Prop.Any() {
		t.Error("slot property pred should carry the != filter")
	}
	if sl.Obj.Any() {
		t.Error("slot object pred should carry the != filter")
	}
	if !sl.Obj.Selective() {
		t.Error("filtered slot object should be Selective (partially bound)")
	}
	// The predicate excludes go1 but admits others.
	g := testGraph()
	go1 := g.Dict.MustLookup(rdf.NewIRI("http://ex/go1"))
	go9 := g.Dict.MustLookup(rdf.NewIRI("http://ex/go9"))
	qsl := q.Stars[0].Slots[0]
	if qsl.Obj.Match(go1) {
		t.Error("pred admits excluded ID")
	}
	if !qsl.Obj.Match(go9) {
		t.Error("pred rejects allowed ID")
	}
}

func TestCompileContainsFilter(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT ?s WHERE {
  ?s ?p ?o .
  FILTER(CONTAINS(?o, "hexokinase"))
}`)
	sl := q.Stars[0].Slots[0]
	if sl.Obj.In == nil {
		t.Fatal("CONTAINS did not compile to a membership set")
	}
	g := testGraph()
	hexLabel := g.Dict.MustLookup(rdf.NewLiteral("hexokinase enzyme"))
	hexIRI := g.Dict.MustLookup(rdf.NewIRI("http://ex/hexokinase"))
	if !sl.Obj.Match(hexLabel) {
		t.Error("CONTAINS set misses matching literal")
	}
	if !sl.Obj.Match(hexIRI) {
		t.Error("CONTAINS set misses matching IRI (STR semantics)")
	}
	other := g.Dict.MustLookup(rdf.NewIRI("http://ex/go1"))
	if sl.Obj.Match(other) {
		t.Error("CONTAINS set admits non-matching term")
	}
}

func TestCompileMissingTermsMakeQueryEmpty(t *testing.T) {
	cases := []string{
		// Bound property absent from the data.
		`SELECT * WHERE { ?s <http://ex/nosuch> ?o . }`,
		// Equality filter against an absent term.
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o = <http://ex/nosuch>) }`,
		// Constant object absent.
		`SELECT ?s WHERE { ?s <http://ex/label> "no such label" . }`,
		// Constant subject absent.
		`SELECT ?p WHERE { <http://ex/nosuch> ?p ?o . }`,
	}
	for _, src := range cases {
		q := compile(t, src)
		if !q.Empty() {
			t.Errorf("query %q should be Empty", src)
		}
	}
	q := compile(t, `SELECT * WHERE { ?s <http://ex/label> ?l . }`)
	if q.Empty() {
		t.Error("satisfiable query reported Empty")
	}
}

func TestCompileConstantSubjectStar(t *testing.T) {
	q := compile(t, `SELECT ?p ?o WHERE { <http://ex/gene9> ?p ?o . }`)
	st := q.Stars[0]
	if st.SubjVar != "" {
		t.Errorf("SubjVar = %q, want constant", st.SubjVar)
	}
	if _, ok := st.Subj.Exact(); !ok {
		t.Errorf("Subj pred = %v, want exact", st.Subj)
	}
}

func TestCompileUnsupportedShapes(t *testing.T) {
	g := testGraph()
	cases := []struct {
		name, src, wantErr string
	}{
		{"cartesian",
			`SELECT * WHERE { ?a <http://ex/label> ?x . ?b <http://ex/type> ?y . }`,
			"disconnected"},
		{"property var reused",
			`SELECT * WHERE { ?a ?p ?x . ?b ?p ?y . ?a <http://ex/xGO> ?b . }`,
			"property variable"},
		{"property var as object",
			`SELECT * WHERE { ?a ?p ?x . ?a <http://ex/xGO> ?p . }`,
			"property variable"},
		{"object var twice in star",
			`SELECT * WHERE { ?a <http://ex/label> ?x . ?a <http://ex/synonym> ?x . }`,
			"twice in star"},
		{"self loop",
			`SELECT * WHERE { ?a <http://ex/xGO> ?a . }`,
			"subject and object"},
		{"cycle",
			`SELECT * WHERE { ?a <http://ex/xGO> ?x . ?a <http://ex/xRef> ?y . ?b <http://ex/label> ?x . ?b <http://ex/synonym> ?y . }`,
			"cyclic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pq, err := sparql.Parse(c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Compile(pq, g.Dict)
			if err == nil {
				t.Fatalf("Compile(%q) succeeded, want error containing %q", c.src, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestTripleRelevant(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ex:xGO ?go .
}`)
	g := testGraph()
	label := g.Dict.MustLookup(rdf.NewIRI("http://ex/label"))
	synonym := g.Dict.MustLookup(rdf.NewIRI("http://ex/synonym"))
	gene9 := g.Dict.MustLookup(rdf.NewIRI("http://ex/gene9"))
	lit := g.Dict.MustLookup(rdf.NewLiteral("RCoR-1"))
	if !q.TripleRelevant(rdf.Triple{S: gene9, P: label, O: lit}) {
		t.Error("bound-property triple reported irrelevant")
	}
	if q.TripleRelevant(rdf.Triple{S: gene9, P: synonym, O: lit}) {
		t.Error("non-matching property reported relevant for bound-only query")
	}
	// With an unbound slot, any property matches.
	q2 := compile(t, `SELECT * WHERE { ?g ?p ?o . }`)
	if !q2.TripleRelevant(rdf.Triple{S: gene9, P: synonym, O: lit}) {
		t.Error("triple irrelevant under pure unbound pattern")
	}
}

func TestThreeStarChainJoinOrder(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:xGO ?b .
  ?b ex:label ?l .
  ?b ex:type ?c .
  ?c ex:label ?cl .
}`)
	if len(q.Stars) != 3 {
		t.Fatalf("stars = %d", len(q.Stars))
	}
	if len(q.Joins) != 2 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	if q.Joins[0].Var != "b" || q.Joins[1].Var != "c" {
		t.Errorf("join vars = %q, %q", q.Joins[0].Var, q.Joins[1].Var)
	}
}

func TestExplainMentionsStructure(t *testing.T) {
	q := compile(t, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ?p ?o .
  ?o ex:type ?t .
}`)
	out := q.Explain()
	for _, want := range []string{"2 star(s)", "1 join(s)", "slot[0]", "bound[0]", "unbound-object"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestPredMatchCombinations(t *testing.T) {
	in := map[rdf.ID]struct{}{3: {}, 4: {}}
	cases := []struct {
		pred Pred
		id   rdf.ID
		want bool
	}{
		{Pred{}, 7, true},
		{Pred{None: true}, 7, false},
		{Pred{Eq: 7}, 7, true},
		{Pred{Eq: 7}, 8, false},
		{Pred{Neq: []rdf.ID{7}}, 7, false},
		{Pred{Neq: []rdf.ID{7}}, 8, true},
		{Pred{In: in}, 3, true},
		{Pred{In: in}, 7, false},
		{Pred{Eq: 3, In: in}, 3, true},
		{Pred{Eq: 7, In: in}, 7, false},
		{Pred{In: map[rdf.ID]struct{}{}}, 1, false},
	}
	for i, c := range cases {
		if got := c.pred.Match(c.id); got != c.want {
			t.Errorf("case %d: %v.Match(%d) = %v, want %v", i, c.pred, c.id, got, c.want)
		}
	}
	if !(Pred{}).Any() || (Pred{Eq: 1}).Any() || (Pred{None: true}).Any() {
		t.Error("Any misreports")
	}
	if (Pred{}).Selective() || !(Pred{Eq: 1}).Selective() {
		t.Error("Selective misreports")
	}
}

func TestRowsHelpers(t *testing.T) {
	a := []Row{{3, 1}, {1, 2}, {1, 2}}
	b := []Row{{1, 2}, {3, 1}, {1, 2}}
	if !RowsEqual(a, b) {
		t.Error("equal multisets reported unequal")
	}
	c := []Row{{1, 2}, {3, 1}}
	if RowsEqual(a, c) {
		t.Error("different cardinalities reported equal")
	}
	if d := DiffRows(a, c, 5); !strings.Contains(d, "only in A") {
		t.Errorf("DiffRows = %q", d)
	}
	can := CanonicalRows(a, true)
	if len(can) != 2 {
		t.Errorf("CanonicalRows distinct = %v", can)
	}
	// Projection.
	q := compile(t, `SELECT ?o WHERE { ?s ?p ?o . }`)
	full := Row{10, 20, 30} // s, p, o
	proj := q.ProjectAll([]Row{full})
	if len(proj) != 1 || len(proj[0]) != 1 || proj[0][0] != 30 {
		t.Errorf("ProjectAll = %v", proj)
	}
}
