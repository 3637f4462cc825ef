package sparql

import (
	"reflect"
	"strings"
	"testing"

	"ntga/internal/rdf"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://example.org/>
SELECT ?gene ?go WHERE {
  ?gene ex:xGO ?go .
  ?gene ex:label "retinoid X receptor" .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Select, []string{"gene", "go"}) {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Where) != 2 {
		t.Fatalf("len(Where) = %d", len(q.Where))
	}
	tp := q.Where[0]
	if !tp.S.IsVar || tp.S.Var != "gene" {
		t.Errorf("S = %v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term != rdf.NewIRI("http://example.org/xGO") {
		t.Errorf("P = %v", tp.P)
	}
	if tp.Unbound() {
		t.Error("bound pattern reported unbound")
	}
	if q.Where[1].O.Term != rdf.NewLiteral("retinoid X receptor") {
		t.Errorf("literal object = %v", q.Where[1].O)
	}
}

func TestParseUnboundProperty(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s ?p ?o . ?s <http://ex/label> ?l . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 0 {
		t.Errorf("SELECT * should give empty Select, got %v", q.Select)
	}
	if !q.Where[0].Unbound() {
		t.Error("pattern ?s ?p ?o not reported unbound")
	}
	if q.UnboundPatternCount() != 1 {
		t.Errorf("UnboundPatternCount = %d", q.UnboundPatternCount())
	}
	if got := q.Vars(); !reflect.DeepEqual(got, []string{"s", "p", "o", "l"}) {
		t.Errorf("Vars = %v", got)
	}
}

func TestParseFilters(t *testing.T) {
	q, err := Parse(`
PREFIX ex: <http://ex/>
SELECT ?s WHERE {
  ?s ?p ?o .
  FILTER(?o = ex:target)
  FILTER(?p != ex:label)
  FILTER(CONTAINS(?o, "hexokinase"))
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 3 {
		t.Fatalf("len(Filters) = %d", len(q.Filters))
	}
	want := []Filter{
		{Var: "o", Op: FilterEq, Value: rdf.NewIRI("http://ex/target")},
		{Var: "p", Op: FilterNeq, Value: rdf.NewIRI("http://ex/label")},
		{Var: "o", Op: FilterContains, Value: rdf.NewLiteral("hexokinase")},
	}
	if !reflect.DeepEqual(q.Filters, want) {
		t.Errorf("Filters = %v, want %v", q.Filters, want)
	}
}

func TestParseRDFTypeShorthand(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s a <http://ex/Scientist> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].P.Term.Value != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' expanded to %v", q.Where[0].P)
	}
}

func TestParseTypedAndLangLiterals(t *testing.T) {
	q, err := Parse(`
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE {
  ?s <http://ex/v> "42"^^xsd:integer .
  ?s <http://ex/l> "hi"@en .
  ?s <http://ex/w> "7"^^<http://dt> .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].O.Term != rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer") {
		t.Errorf("typed literal = %v", q.Where[0].O)
	}
	if q.Where[1].O.Term != rdf.NewLangLiteral("hi", "en") {
		t.Errorf("lang literal = %v", q.Where[1].O)
	}
	if q.Where[2].O.Term != rdf.NewTypedLiteral("7", "http://dt") {
		t.Errorf("typed literal = %v", q.Where[2].O)
	}
}

func TestParseDistinct(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?s WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
}

func TestParseConstantSubject(t *testing.T) {
	q, err := Parse(`SELECT ?p ?o WHERE { <http://ex/hexokinase> ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].S.IsVar {
		t.Error("constant subject parsed as variable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ``},
		{"no select", `WHERE { ?s ?p ?o . }`},
		{"no where", `SELECT ?s { ?s ?p ?o . }`},
		{"empty where", `SELECT * WHERE { }`},
		{"missing dot", `SELECT * WHERE { ?s ?p ?o }`},
		{"unterminated", `SELECT * WHERE { ?s ?p ?o .`},
		{"undeclared prefix", `SELECT * WHERE { ?s ex:p ?o . }`},
		{"literal subject", `SELECT * WHERE { "lit" <http://p> ?o . }`},
		{"literal predicate", `SELECT * WHERE { ?s "p" ?o . }`},
		{"select unknown var", `SELECT ?zzz WHERE { ?s ?p ?o . }`},
		{"filter unknown var", `SELECT * WHERE { ?s ?p ?o . FILTER(?zzz = <http://x>) }`},
		{"contains non-literal", `SELECT * WHERE { ?s ?p ?o . FILTER(CONTAINS(?o, <http://x>)) }`},
		{"trailing garbage", `SELECT * WHERE { ?s ?p ?o . } extra`},
		{"unterminated iri", `SELECT * WHERE { ?s <http:x ?o . }`},
		{"unterminated string", `SELECT * WHERE { ?s <http://p> "x . }`},
		{"bad filter op", `SELECT * WHERE { ?s ?p ?o . FILTER(?o < 3) }`},
		{"empty var", `SELECT ? WHERE { ?s ?p ?o . }`},
		{"invalid UTF-8", "SELECT * WHERE { ?s <http://p> ?o . FILTER(CONTAINS(?o, \"\xc8\")) }"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", c.src)
			}
		})
	}
}

func TestQueryStringRoundtrip(t *testing.T) {
	src := `
PREFIX ex: <http://ex/>
SELECT ?s ?o WHERE {
  ?s ex:knows ?o .
  ?s ?p ?x .
  FILTER(?x = "val")
  FILTER(CONTAINS(?o, "sub"))
}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if !reflect.DeepEqual(q.Where, q2.Where) || !reflect.DeepEqual(q.Filters, q2.Filters) ||
		!reflect.DeepEqual(q.Select, q2.Select) {
		t.Errorf("roundtrip mismatch:\n%v\nvs\n%v", q, q2)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on invalid input did not panic")
		}
	}()
	MustParse("not sparql")
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	q, err := Parse(`
# leading comment
SELECT ?s   # trailing comment
WHERE {
  # pattern comment
  ?s <http://p> ?o .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Errorf("len(Where) = %d", len(q.Where))
	}
}

func TestFilterOpString(t *testing.T) {
	if FilterEq.String() != "=" || FilterNeq.String() != "!=" || FilterContains.String() != "CONTAINS" {
		t.Error("FilterOp.String mismatch")
	}
	if !strings.Contains(FilterOp(9).String(), "9") {
		t.Error("unknown FilterOp should include the number")
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse(`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCount() || q.CountVar != "n" {
		t.Errorf("CountVar = %q, IsCount = %v", q.CountVar, q.IsCount())
	}
	// Roundtrips through String().
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if q2.CountVar != "n" {
		t.Errorf("roundtrip CountVar = %q", q2.CountVar)
	}
}

func TestParseCountErrors(t *testing.T) {
	cases := []string{
		`SELECT (COUNT(*) AS ?s) WHERE { ?s ?p ?o . }`,          // AS var reused
		`SELECT DISTINCT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }`, // distinct+count
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . }`,         // COUNT(?v) unsupported
		`SELECT (COUNT(*) AS ?n WHERE { ?s ?p ?o . }`,           // missing paren
		`SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o . }`,            // unknown aggregate
		`SELECT (COUNT(*) ?n) WHERE { ?s ?p ?o . }`,             // missing AS
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseFilterSyntaxErrors(t *testing.T) {
	cases := []string{
		`SELECT * WHERE { ?s ?p ?o . FILTER ?o = <http://x> }`,     // missing (
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o = <http://x> }`,     // missing )
		`SELECT * WHERE { ?s ?p ?o . FILTER(<http://x> = ?o) }`,    // non-var lhs
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o = ) }`,              // missing term
		`SELECT * WHERE { ?s ?p ?o . FILTER(CONTAINS ?o, "x") }`,   // missing (
		`SELECT * WHERE { ?s ?p ?o . FILTER(CONTAINS(?o "x")) }`,   // missing comma
		`SELECT * WHERE { ?s ?p ?o . FILTER(CONTAINS(?o, "x") }`,   // missing )
		`SELECT * WHERE { ?s ?p ?o . FILTER(?o = ex:undeclared) }`, // bad prefix
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// FuzzParseSPARQL runs arbitrary text through the parser every /query body
// goes through. Parse must never panic, and an accepted query must render
// (Query.String) to text that parses again to an equal AST. The ASTs are
// compared, not the texts: String iterates the Prefixes map, so the order
// of its PREFIX lines varies. The seed corpus under testdata/fuzz is the
// benchmark query catalog.
func FuzzParseSPARQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: renders as %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("%q: renders as %q, which parses to\n%#v\nnot\n%#v", src, text, back, q)
		}
	})
}
