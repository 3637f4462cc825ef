package rdf

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadNTriplesBasic(t *testing.T) {
	input := `# a comment
<http://ex.org/gene9> <http://ex.org/xGO> <http://ex.org/go1> .
<http://ex.org/gene9> <http://ex.org/label> "retinoid X receptor" .

<http://ex.org/gene9> <http://ex.org/synonym> "RCoR-1"@en .
_:b1 <http://ex.org/score> "3.5"^^<http://www.w3.org/2001/XMLSchema#double> .
`
	g, err := ReadNTriples(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if g.Len() != 4 {
		t.Fatalf("parsed %d triples, want 4", g.Len())
	}
	// Spot-check the language-tagged literal and the blank node.
	tr := g.Triples[2]
	if got := g.Dict.Decode(tr.O); got != NewLangLiteral("RCoR-1", "en") {
		t.Errorf("triple 2 object = %v", got)
	}
	tr = g.Triples[3]
	if got := g.Dict.Decode(tr.S); got != NewBlank("b1") {
		t.Errorf("triple 3 subject = %v", got)
	}
	if got := g.Dict.Decode(tr.O); got != NewTypedLiteral("3.5", "http://www.w3.org/2001/XMLSchema#double") {
		t.Errorf("triple 3 object = %v", got)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"missing dot", `<http://a> <http://b> <http://c>`},
		{"literal subject", `"lit" <http://b> <http://c> .`},
		{"blank predicate", `<http://a> _:b <http://c> .`},
		{"literal predicate", `<http://a> "p" <http://c> .`},
		{"unterminated iri", `<http://a <http://b> <http://c> .`},
		{"unterminated literal", `<http://a> <http://b> "oops .`},
		{"garbage", `hello world .`},
		{"dangling escape", `<http://a> <http://b> "x\` + `" .`},
		{"bad escape", `<http://a> <http://b> "x\q" .`},
		{"truncated", `<http://a> <http://b>`},
		{"trailing garbage", `<http://a> <http://b> <http://c> . extra`},
		{"empty blank label", `_: <http://b> <http://c> .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadNTriples(strings.NewReader(c.input))
			if err == nil {
				t.Errorf("input %q parsed without error", c.input)
			}
			var pe *ParseError
			if !errorsAs(err, &pe) {
				t.Errorf("error %v is not a *ParseError", err)
			} else if pe.Line != 1 {
				t.Errorf("error line = %d, want 1", pe.Line)
			}
		})
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors just for tests.
func errorsAs(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestNTriplesRoundtrip(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("http://ex/s"), NewIRI("http://ex/p"), NewLiteral("plain"))
	g.Add(NewIRI("http://ex/s"), NewIRI("http://ex/p"), NewLangLiteral("hi", "en"))
	g.Add(NewBlank("n0"), NewIRI("http://ex/q"), NewTypedLiteral("7", "http://xsd/int"))
	g.Add(NewIRI("http://ex/s"), NewIRI("http://ex/p"), NewLiteral("with \"quotes\" and \\slash\n"))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	g2, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("roundtrip triple count %d, want %d", g2.Len(), g.Len())
	}
	for i := range g.Triples {
		for _, pair := range [][2]Term{
			{g.Dict.Decode(g.Triples[i].S), g2.Dict.Decode(g2.Triples[i].S)},
			{g.Dict.Decode(g.Triples[i].P), g2.Dict.Decode(g2.Triples[i].P)},
			{g.Dict.Decode(g.Triples[i].O), g2.Dict.Decode(g2.Triples[i].O)},
		} {
			if pair[0] != pair[1] {
				t.Errorf("triple %d term mismatch: %v vs %v", i, pair[0], pair[1])
			}
		}
	}
}

// TestNTriplesLiteralRoundtripQuick property-tests that any literal value
// survives a serialize/parse cycle.
func TestNTriplesLiteralRoundtripQuick(t *testing.T) {
	f := func(val string) bool {
		// Scanner-based reader is line-oriented; embedded newlines are
		// escaped by the writer so they are safe.
		g := NewGraph()
		g.Add(NewIRI("http://s"), NewIRI("http://p"), NewLiteral(val))
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		g2, err := ReadNTriples(&buf)
		if err != nil || g2.Len() != 1 {
			return false
		}
		return g2.Dict.Decode(g2.Triples[0].O) == NewLiteral(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphDedup(t *testing.T) {
	g := NewGraph()
	s, p, o := NewIRI("s"), NewIRI("p"), NewIRI("o")
	g.Add(s, p, o)
	g.Add(s, p, o)
	g.Add(s, p, NewIRI("o2"))
	if removed := g.Dedup(); removed != 1 {
		t.Errorf("Dedup removed %d, want 1", removed)
	}
	if g.Len() != 2 {
		t.Errorf("Len after dedup = %d, want 2", g.Len())
	}
	if !sort.SliceIsSorted(g.Triples, func(i, j int) bool { return g.Triples[i].Less(g.Triples[j]) }) {
		t.Error("Dedup did not leave triples sorted")
	}
}

func TestGraphPropertiesAndSubjects(t *testing.T) {
	g := NewGraph()
	g.Add(NewIRI("s1"), NewIRI("p1"), NewIRI("o1"))
	g.Add(NewIRI("s1"), NewIRI("p2"), NewIRI("o2"))
	g.Add(NewIRI("s2"), NewIRI("p1"), NewIRI("o3"))
	props := g.Properties()
	subs := g.Subjects()
	if len(props) != 2 {
		t.Errorf("Properties = %v, want 2 entries", props)
	}
	if len(subs) != 2 {
		t.Errorf("Subjects = %v, want 2 entries", subs)
	}
}

func TestPropertyMultiplicity(t *testing.T) {
	g := NewGraph()
	s1, s2 := NewIRI("s1"), NewIRI("s2")
	p, q := NewIRI("p"), NewIRI("q")
	// s1 has 3 p-triples, s2 has 1; q has 1 each.
	g.Add(s1, p, NewIRI("a"))
	g.Add(s1, p, NewIRI("b"))
	g.Add(s1, p, NewIRI("c"))
	g.Add(s2, p, NewIRI("d"))
	g.Add(s1, q, NewIRI("e"))
	g.Add(s2, q, NewIRI("f"))
	mult := g.PropertyMultiplicity()
	pid := g.Dict.MustLookup(p)
	qid := g.Dict.MustLookup(q)
	want := map[ID]int{pid: 3, qid: 1}
	if !reflect.DeepEqual(mult, want) {
		t.Errorf("PropertyMultiplicity = %v, want %v", mult, want)
	}
}

// FuzzParseTriple: ParseTriple reads every line of an /ingest batch, input
// from outside the process, so it must never panic, and what it accepts must
// survive rendering. Each accepted term's AppendNT form must re-parse with
// ParseTermText to a term that renders the same bytes, and the rendered
// statement must re-parse to the same three renderings. The seed corpus
// under testdata/fuzz holds escapes, language and typed literals, blank
// nodes, invalid UTF-8 and trailing garbage.
func FuzzParseTriple(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		s, p, o, err := ParseTriple(line)
		if err != nil {
			return
		}
		var stmt []byte
		nts := make([][]byte, 3)
		for i, term := range []Term{s, p, o} {
			nts[i] = term.AppendNT(nil)
			back, err := ParseTermText(string(nts[i]))
			if err != nil {
				t.Fatalf("%q: term %#v renders as %q, which does not parse: %v", line, term, nts[i], err)
			}
			if again := back.AppendNT(nil); !bytes.Equal(again, nts[i]) {
				t.Fatalf("%q: term renders as %q, re-parses to %#v, which renders as %q", line, nts[i], back, again)
			}
			stmt = append(append(stmt, nts[i]...), ' ')
		}
		stmt = append(stmt, '.')
		s2, p2, o2, err := ParseTriple(string(stmt))
		if err != nil {
			t.Fatalf("%q: renders as %q, which does not parse: %v", line, stmt, err)
		}
		for i, term := range []Term{s2, p2, o2} {
			if again := term.AppendNT(nil); !bytes.Equal(again, nts[i]) {
				t.Fatalf("%q: renders as %q; term %d re-parses to %q", line, stmt, i, again)
			}
		}
	})
}
