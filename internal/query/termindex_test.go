package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// renderTableByMap is RenderTable as it was before the term index, with
// the cells numbered through a Go map. It is the reference the index is
// held to, and BenchmarkRenderTable's before row.
func (q *Query) renderTableByMap(rows []Row) (header, terms []string, cells []uint32) {
	if q.IsCount() {
		return []string{"?" + q.Src.CountVar}, nil, nil
	}
	rows, idx := q.columns(rows, make([]int, 0, 16))
	cells = make([]uint32, 0, len(rows)*len(idx))
	index := make(map[rdf.ID]uint32)
	var ids []rdf.ID // ids[t] is the ID of term t
	for _, r := range rows {
		for _, c := range idx {
			t, ok := index[r[c]]
			if !ok {
				t = uint32(len(ids))
				index[r[c]] = t
				ids = append(ids, r[c])
			}
			cells = append(cells, t)
		}
	}

	n := q.headerLen()
	if len(ids) > 0 {
		n += q.Dict.NTLen(ids...) - (len(ids) - 1) // less the separators
	}
	var sb strings.Builder
	sb.Grow(n)
	header = q.writeHeader(&sb)
	terms = make([]string, len(ids))
	term := make([]byte, 0, 256)
	for i, id := range ids {
		start := sb.Len()
		term = q.Dict.AppendNT(term[:0], 0, id)
		sb.Write(term)
		terms[i] = sb.String()[start:]
	}
	return header, terms, cells
}

// randomRows returns n full rows of q whose cells are drawn from the first
// span IDs of its dictionary, NoID ("_") among them.
func randomRows(rng *rand.Rand, q *Query, n, span int) []Row {
	slab := make([]rdf.ID, n*len(q.AllVars))
	for i := range slab {
		slab[i] = rdf.ID(rng.Intn(span))
	}
	return AppendSlabRows(nil, slab, len(q.AllVars), n)
}

func checkAgainstMap(t *testing.T, name string, q *Query, rows []Row) {
	t.Helper()
	header, terms, cells := q.RenderTable(rows)
	wh, wt, wc := q.renderTableByMap(rows)
	if !slices.Equal(header, wh) || !slices.Equal(terms, wt) || !slices.Equal(cells, wc) {
		t.Fatalf("%s, %d rows: header %q terms %d cells %d; the map gives %q, %d, %d",
			name, len(rows), header, len(terms), len(cells), wh, len(wt), len(wc))
	}
	if len(cells) != cap(cells) {
		t.Errorf("%s: cells has length %d, capacity %d; want exact", name, len(cells), cap(cells))
	}
}

// TestRenderTableMatchesMap holds RenderTable to the map-numbered reference
// on random rows with unbound cells, with and without DISTINCT.
func TestRenderTableMatchesMap(t *testing.T) {
	g := testGraph()
	span := g.Dict.Len() + 1
	rng := rand.New(rand.NewSource(50))
	for _, src := range []string{
		`PREFIX ex: <http://ex/> SELECT ?l ?g WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?go ?l WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`,
		`PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . }`,
	} {
		q := MustCompile(sparql.MustParse(src), g.Dict)
		for _, n := range []int{0, 1, 2, 7, 100, 3000} {
			checkAgainstMap(t, src, q, randomRows(rng, q, n, span))
		}
	}
}

// TestRenderTablePastPoolBound renders a table whose index is larger than
// what the pool keeps (chunk.MaxPooled): more distinct terms than a pooled
// table or ID list holds. The table must still match the map, and the pool
// must not keep the outsized memory.
func TestRenderTablePastPoolBound(t *testing.T) {
	d := rdf.NewDict()
	terms := make([]rdf.Term, 2*maxPooledIDs+1)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://ex/t%d", i))
	}
	if err := d.Extend(terms); err != nil {
		t.Fatal(err)
	}
	q := MustCompile(sparql.MustParse(`SELECT * WHERE { ?s ?p ?o . }`), d)
	rows := randomRows(rand.New(rand.NewSource(50)), q, maxPooledIDs/2, d.Len()+1) // ≈ 277k distinct IDs
	checkAgainstMap(t, "past the bound", q, rows)

	x := getTermIndex(d.Len()+1, 3*len(rows))
	if len(x.slots) <= maxPooledSlots {
		t.Fatalf("index of %d cells over %d IDs: %d slots; want more than %d",
			3*len(rows), d.Len()+1, len(x.slots), maxPooledSlots)
	}
	x.number(make([]uint32, 3*len(rows)), rows, []int{0, 1, 2})
	if len(x.ids) <= maxPooledIDs {
		t.Fatalf("%d distinct IDs; want more than %d", len(x.ids), maxPooledIDs)
	}
	x.release()
	if x.slots != nil || x.ids != nil {
		t.Errorf("release kept %d slots and %d IDs, past the pool's bound", cap(x.slots), cap(x.ids))
	}
}

// TestTermIndexNumbersAndClears numbers random IDs, NoID among them, as a
// map numbers them, over a dictionary smaller and one larger than the
// rendering, and checks that a released index is all zero, so that the
// next rendering starts empty without clearing the whole table.
func TestTermIndexNumbersAndClears(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, span := range []int{1 << 10, 1 << 24} {
		rows := make([]Row, 500)
		for i := range rows {
			rows[i] = Row{rdf.ID(rng.Intn(1 << 10)), rdf.NoID, rdf.ID(rng.Intn(span))}
		}
		x := getTermIndex(span, 3*len(rows))
		if distinct := min(span, 3*len(rows)); len(x.slots) <= 2*distinct {
			t.Errorf("span %d: %d slots for up to %d distinct IDs; want more than twice as many", span, len(x.slots), distinct)
		}
		cells := make([]uint32, 3*len(rows))
		x.number(cells, rows, []int{0, 1, 2})
		index := make(map[rdf.ID]uint32)
		for i, id := range slices.Concat(rows...) {
			if _, ok := index[id]; !ok {
				index[id] = uint32(len(index))
			}
			if cells[i] != index[id] {
				t.Fatalf("span %d: cell %d (ID %d) numbered %d, the map %d", span, i, id, cells[i], index[id])
			}
		}
		x.release()
		if slices.ContainsFunc(x.slots[:cap(x.slots)], func(v uint64) bool { return v != 0 }) || len(x.ids) != 0 {
			t.Errorf("span %d: release left entries set", span)
		}
	}
}

// benchTable is a 4,000-row, 4-column result over a dictionary of about
// 5,000 terms, most of them repeated across rows.
func benchTable(b *testing.B) (*Query, []Row) {
	g := testGraph()
	extra := make([]rdf.Term, 5000)
	for i := range extra {
		extra[i] = rdf.NewLiteral(fmt.Sprintf("term number %d", i))
	}
	if err := g.Dict.Extend(extra); err != nil {
		b.Fatal(err)
	}
	q := MustCompile(sparql.MustParse(`PREFIX ex: <http://ex/> SELECT * WHERE { ?g ex:label ?l . ?g ?p ?o . }`), g.Dict)
	return q, randomRows(rand.New(rand.NewSource(1)), q, 4000, g.Dict.Len()+1)
}

// BenchmarkRenderTable renders benchTable's rows with the term index and,
// for the before row, with the map-numbered reference.
func BenchmarkRenderTable(b *testing.B) {
	q, rows := benchTable(b)
	for _, c := range []struct {
		name   string
		render func([]Row) ([]string, []string, []uint32)
	}{{"index", q.RenderTable}, {"map", q.renderTableByMap}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.render(rows)
			}
		})
	}
}

// BenchmarkTableRows rebuilds benchTable's rows from its term table, as
// both clients do.
func BenchmarkTableRows(b *testing.B) {
	q, rows := benchTable(b)
	header, terms, cells := q.RenderTable(rows)
	w := len(header)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TableRows(w, len(rows), terms, cells); err != nil {
			b.Fatal(err)
		}
	}
}
