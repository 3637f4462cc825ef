package rdf

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
)

func TestDictEncodeDecodeRoundtrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		NewIRI("http://ex.org/s1"),
		NewIRI("http://ex.org/p1"),
		NewLiteral("v"),
		NewLangLiteral("v", "en"),
		NewTypedLiteral("1", "http://xsd/int"),
		NewBlank("b0"),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] == NoID {
			t.Fatalf("Encode(%v) returned NoID", tm)
		}
	}
	for i, tm := range terms {
		if got := d.Decode(ids[i]); got != tm {
			t.Errorf("Decode(%d) = %v, want %v", ids[i], got, tm)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestDictEncodeIdempotent(t *testing.T) {
	d := NewDict()
	a := d.Encode(NewIRI("x"))
	b := d.Encode(NewIRI("x"))
	if a != b {
		t.Errorf("same term encoded to %d and %d", a, b)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d after duplicate encode, want 1", d.Len())
	}
}

func TestDictLookup(t *testing.T) {
	d := NewDict()
	id := d.Encode(NewIRI("x"))
	got, ok := d.Lookup(NewIRI("x"))
	if !ok || got != id {
		t.Errorf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
	if _, ok := d.Lookup(NewIRI("absent")); ok {
		t.Error("Lookup(absent) reported present")
	}
	if d.Len() != 1 {
		t.Error("Lookup must not intern")
	}
}

func TestDictMustLookupPanics(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Error("MustLookup(absent) did not panic")
		}
	}()
	d.MustLookup(NewIRI("absent"))
}

func TestDictFreeze(t *testing.T) {
	d := NewDict()
	d.Encode(NewIRI("known"))
	d.Freeze()
	// Known terms still encode fine.
	if d.Encode(NewIRI("known")) != 1 {
		t.Error("frozen dict failed to encode known term")
	}
	defer func() {
		if recover() == nil {
			t.Error("Encode of new term on frozen dict did not panic")
		}
	}()
	d.Encode(NewIRI("new"))
}

func TestDictDecodePanicsOnInvalid(t *testing.T) {
	d := NewDict()
	d.Encode(NewIRI("x"))
	for _, id := range []ID{NoID, 2, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decode(%d) did not panic", id)
				}
			}()
			d.Decode(id)
		}()
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	const goroutines = 8
	const terms = 200
	var wg sync.WaitGroup
	results := make([][]ID, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			ids := make([]ID, terms)
			for i := 0; i < terms; i++ {
				ids[i] = d.Encode(NewIRI(fmt.Sprintf("http://ex.org/t%d", i)))
			}
			results[gi] = ids
		}(gi)
	}
	wg.Wait()
	if d.Len() != terms {
		t.Fatalf("Len = %d, want %d", d.Len(), terms)
	}
	for gi := 1; gi < goroutines; gi++ {
		for i := 0; i < terms; i++ {
			if results[gi][i] != results[0][i] {
				t.Fatalf("goroutine %d got id %d for term %d, goroutine 0 got %d",
					gi, results[gi][i], i, results[0][i])
			}
		}
	}
}

func TestTripleLess(t *testing.T) {
	cases := []struct {
		a, b Triple
		want bool
	}{
		{Triple{1, 1, 1}, Triple{2, 1, 1}, true},
		{Triple{1, 1, 1}, Triple{1, 2, 1}, true},
		{Triple{1, 1, 1}, Triple{1, 1, 2}, true},
		{Triple{1, 1, 1}, Triple{1, 1, 1}, false},
		{Triple{2, 1, 1}, Triple{1, 9, 9}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Dict.AppendNT renders a row of IDs joined by the separator, "_" for NoID,
// exactly as joining the decoded terms' String forms would; NTLen predicts
// the length; an out-of-range ID panics as Decode does.
func TestDictAppendNT(t *testing.T) {
	d := NewDict()
	var ids []ID
	var want []string
	for i, tm := range ntShapes {
		if i%4 == 3 {
			ids = append(ids, NoID)
			want = append(want, "_")
		}
		ids = append(ids, d.Encode(tm))
		want = append(want, tm.String())
	}
	got := d.AppendNT([]byte("row:"), '\t', ids...)
	if string(got) != "row:"+strings.Join(want, "\t") {
		t.Errorf("AppendNT = %q", got)
	}
	if n := d.NTLen(ids...); n != len(got)-len("row:") {
		t.Errorf("NTLen = %d, rendered %d bytes", n, len(got)-len("row:"))
	}
	if got := d.AppendNT(nil, ' '); len(got) != 0 || d.NTLen() != 0 {
		t.Errorf("empty row rendered %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendNT of an out-of-range ID did not panic")
		}
	}()
	d.AppendNT(nil, '\t', ID(d.Len()+1))
}

// TestDictKeyFormsAndHitAllocs: a term's dictionary key keeps its form for
// every kind, and Encode and Lookup of a term already interned build the
// key without allocating it.
func TestDictKeyFormsAndHitAllocs(t *testing.T) {
	for _, tc := range []struct {
		term Term
		key  string
	}{
		{NewIRI("http://ex.org/s"), "ihttp://ex.org/s"},
		{NewBlank("b0"), "bb0"},
		{NewLiteral("v"), "pv"},
		{NewLangLiteral("v", "en"), "len\x00v"},
		{NewTypedLiteral("1", "http://xsd/int"), "thttp://xsd/int\x001"},
		{NewLiteral(strings.Repeat("long ", 60)), "p" + strings.Repeat("long ", 60)},
	} {
		if got := tc.term.Key(); got != tc.key {
			t.Errorf("%v: key %q, want %q", tc.term, got, tc.key)
		}
	}
	if raceEnabled {
		return
	}
	d := NewDict()
	terms := []Term{NewIRI("http://ex.org/s"), NewLangLiteral("v", "en"), NewTypedLiteral("1", "http://xsd/int"), NewBlank("b0")}
	for _, term := range terms {
		d.Encode(term)
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, term := range terms {
			d.Encode(term)
			d.Lookup(term)
		}
	}); got != 0 {
		t.Errorf("Encode and Lookup of interned terms: %.0f allocations, want 0", got)
	}
}

// TestGraphVersionMatchesFmt pins the dataset version to the form it has
// always had: fnv64a over fmt's "%d,%d,%d;" of every triple.
func TestGraphVersionMatchesFmt(t *testing.T) {
	g := NewGraph()
	g.AddID(Triple{1, 2, 3})
	g.AddID(Triple{4294967295, 128, 0})
	g.AddID(Triple{70000, 9, 123456789})
	h := fnv.New64a()
	for _, tr := range g.Triples {
		fmt.Fprintf(h, "%d,%d,%d;", tr.S, tr.P, tr.O)
	}
	if got, want := g.Version(), fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("Version = %s, the fmt form %s", got, want)
	}
}
