package rdf

import (
	"testing"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("bonjour", "fr"), `"bonjour"@fr`},
		{NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral("line1\nline2"), `"line1\nline2"`},
		{NewLiteral(`quote " and \ back`), `"quote \" and \\ back"`},
		{NewLiteral("tab\there"), `"tab\there"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermKeyInjective(t *testing.T) {
	// Terms with the same Value but different kinds or tags must have
	// distinct dictionary keys.
	terms := []Term{
		NewIRI("x"),
		NewBlank("x"),
		NewLiteral("x"),
		NewLangLiteral("x", "en"),
		NewLangLiteral("x", "fr"),
		NewTypedLiteral("x", "http://dt/1"),
		NewTypedLiteral("x", "http://dt/2"),
	}
	seen := make(map[string]Term)
	for _, tm := range terms {
		k := tm.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision: %v and %v both map to %q", prev, tm, k)
		}
		seen[k] = tm
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || Blank.String() != "Blank" {
		t.Errorf("TermKind.String mismatch: %s %s %s", IRI, Literal, Blank)
	}
	if got := TermKind(9).String(); got != "TermKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// ntShapes holds a term of every kind and every literal shape the renderer
// distinguishes, including each escape, an invalid UTF-8 byte beside an
// escape, and an unknown kind.
var ntShapes = []Term{
	NewIRI("http://ex.org/a"),
	NewIRI(""),
	NewBlank("b1"),
	NewLiteral(""),
	NewLiteral("plain"),
	NewLiteral(`say "hi"`),
	NewLiteral(`back\slash`),
	NewLiteral("line\nfeed"),
	NewLiteral("carriage\rreturn"),
	NewLiteral("tab\tbed"),
	NewLiteral("all \" \\ \n \r \t é"),
	NewLiteral("bad \xff byte\t"),
	NewLangLiteral("bonjour", "fr"),
	NewLangLiteral("a\tb", "en-GB"),
	NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
	NewTypedLiteral("x\ny", "http://dt/1"),
	{Kind: TermKind(7), Value: "odd"},
}

// AppendNT is the one renderer: String wraps it, it appends without touching
// what dst already holds, and ntLen predicts its length exactly.
func TestAppendNTMatchesString(t *testing.T) {
	for _, tm := range ntShapes {
		nt := tm.AppendNT(nil)
		if got := tm.String(); got != string(nt) {
			t.Errorf("%#v: String() = %q, AppendNT = %q", tm, got, nt)
		}
		if n := tm.ntLen(); n != len(nt) {
			t.Errorf("%#v: ntLen = %d, rendered %d bytes", tm, n, len(nt))
		}
		if got := tm.AppendNT([]byte("prefix|")); string(got) != "prefix|"+string(nt) {
			t.Errorf("%#v: AppendNT onto a prefix = %q", tm, got)
		}
	}
}

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// TestAppendNTAllocationCeilings: rendering a term, or a row of IDs through
// the dictionary, into a presized buffer allocates nothing. Before the
// appender existed (commit 19832f0) the only renderer was String: at least
// one new string per term.
func TestAppendNTAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := NewDict()
	ids := make([]ID, len(ntShapes))
	for i, tm := range ntShapes {
		ids[i] = d.Encode(tm)
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		for _, tm := range ntShapes[:len(ntShapes)-1] { // the unknown kind goes through fmt
			buf = tm.AppendNT(buf[:0])
		}
	}); n != 0 {
		t.Errorf("Term.AppendNT: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = d.AppendNT(buf[:0], '\t', ids[:len(ids)-1]...)
		_ = d.NTLen(ids[:len(ids)-1]...)
	}); n != 0 {
		t.Errorf("Dict.AppendNT + NTLen: %.1f allocations, want 0", n)
	}
}
