package query

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// renderFixture compiles src over the Bio test graph and returns n full rows
// cycling through its genes, labels and GO terms.
func renderFixture(t *testing.T, src string, n int) (*Query, []Row) {
	t.Helper()
	g := testGraph()
	q := MustCompile(sparql.MustParse(src), g.Dict)
	ex := func(s string) rdf.ID { return g.Dict.MustLookup(rdf.NewIRI("http://ex/" + s)) }
	genes := []rdf.ID{ex("gene9"), ex("hexokinase"), ex("go1")}
	labels := []rdf.ID{
		g.Dict.MustLookup(rdf.NewLiteral("retinoid X receptor")),
		g.Dict.MustLookup(rdf.NewLiteral("RCoR-1")),
	}
	gos := []rdf.ID{ex("go1"), ex("go9"), ex("GOTerm")}
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, len(q.AllVars))
		r[q.VarIdx["g"]] = genes[i%len(genes)]
		r[q.VarIdx["l"]] = labels[i%len(labels)]
		r[q.VarIdx["go"]] = gos[i%len(gos)]
		rows[i] = r
	}
	return q, rows
}

// TestRenderAllocationCeilings gates the response path's rendering cost per
// result, not per row or term. Before → after (commit 19832f0 → now):
// FormatRow of a two-term row 5 → 1; Render of 1 row 11 → 3 and of 5,000
// rows 27,506 → 3; with DISTINCT 14 → 5 and 10,036 → 5. RenderTable's
// count grows with the distinct terms (its index and term list), never with
// the rows: 7 for the 5,000 rows here, 10 with DISTINCT.
func TestRenderAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const plain = `PREFIX ex: <http://ex/>
SELECT ?l ?g WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`
	q, rows := renderFixture(t, plain, 5000)
	row := q.ProjectAll(rows[:1])[0]
	if n := testing.AllocsPerRun(100, func() { _ = q.FormatRow(row) }); n > 1 {
		t.Errorf("FormatRow: %.0f allocations, want ≤ 1", n)
	}
	for _, c := range []struct {
		name    string
		src     string
		ceiling float64
		table   float64
	}{
		{"plain", plain, 4, 7},
		{"distinct", strings.Replace(plain, "SELECT", "SELECT DISTINCT", 1), 5, 10},
	} {
		q, rows := renderFixture(t, c.src, 5000)
		one := testing.AllocsPerRun(20, func() { q.Render(rows[:1]) })
		many := testing.AllocsPerRun(5, func() { q.Render(rows) })
		if one != many || many > c.ceiling {
			t.Errorf("%s Render: %.0f allocations for 1 row, %.0f for %d; want the same, ≤ %.0f",
				c.name, one, many, len(rows), c.ceiling)
		}
		if n := testing.AllocsPerRun(5, func() { q.RenderTable(rows) }); n > c.table {
			t.Errorf("%s RenderTable of %d rows: %.0f allocations, want ≤ %.0f", c.name, len(rows), n, c.table)
		}
	}
}

// Rendering reads the dictionary while served ingest appends to it: one
// goroutine Encodes and Extends new terms while others render rows of
// existing IDs, whose text must not change (run under -race by make check).
func TestRenderBesideIngest(t *testing.T) {
	const src = `PREFIX ex: <http://ex/>
SELECT DISTINCT ?l ?g WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`
	q, rows := renderFixture(t, src, 200)
	_, want := q.Render(rows)
	row := q.ProjectAll(rows[:1])[0]
	wantRow := q.FormatRow(row)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.Dict.Encode(rdf.NewLiteral(fmt.Sprintf("encoded %d", i)))
			if err := q.Dict.Extend([]rdf.Term{rdf.NewIRI(fmt.Sprintf("http://ex/extended%d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				if _, got := q.Render(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Error("rendered rows changed while the dictionary grew")
					return
				}
				if got := q.FormatRow(row); got != wantRow {
					t.Errorf("FormatRow = %q, want %q", got, wantRow)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
