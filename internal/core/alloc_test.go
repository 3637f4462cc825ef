package core

import (
	"fmt"
	"testing"

	"ntga/internal/chunk"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// allocFixture is one two-star joined record: a gene with a label, two xGO
// links and twelve other pairs under an unbound slot, pinned on one xGO and
// joined to that GO term's star.
func allocFixture(t *testing.T) (q *query.Query, gene AnnTG, comps []AnnTG) {
	t.Helper()
	g := rdf.NewGraph()
	g.Add(ex("gene"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	g.Add(ex("gene"), ex("xGO"), ex("go1"))
	g.Add(ex("gene"), ex("xGO"), ex("go9"))
	for i := 0; i < 12; i++ {
		g.Add(ex("gene"), ex(fmt.Sprintf("p%d", i%5)), ex(fmt.Sprintf("o%d", i)))
	}
	g.Add(ex("go1"), ex("label"), rdf.NewLiteral("go term 1"))
	g.Add(ex("go9"), ex("label"), rdf.NewLiteral("go term 9"))
	q = compileStar(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o .
  ?go ex:label ?gl .
}`)
	groups := Group(g.Triples)
	for _, tg := range groups {
		if a, ok := FilterForStar(tg, q.Stars[0]); ok {
			gene = a
		}
	}
	pinned := PinBound(q.Stars[0], gene, 1)
	if len(gene.Triples) != 15 || len(pinned) != 2 {
		t.Fatalf("fixture: gene has %d pairs, %d xGO pins", len(gene.Triples), len(pinned))
	}
	for _, tg := range groups {
		if tg.Subject == pinned[0].Triples[pinned[0].BoundSel[1]].O {
			term, _ := FilterForStar(tg, q.Stars[1])
			comps = []AnnTG{pinned[0], term}
		}
	}
	if rows, err := ExpandJoined(q, comps); err != nil || len(rows) != 15 {
		t.Fatalf("fixture: joined record expands to %d rows, %v", len(rows), err)
	}
	return q, gene, comps
}

// TestAllocationCeilings is the regression gate on the per-record path: each
// operator on the fixture, with the Scratch a task would carry, against a
// ceiling. "a → b" is the count at commit 39acfa2 (a value per intermediate)
// and now (slabs).
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q, gene, comps := allocFixture(t)
	st := q.Stars[0]
	rec := EncodeJoined(comps)
	var s Scratch
	var ids []rdf.ID
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"Expand", 2, func() { Expand(q, gene) }},                                           // 46 → 2: one ID slab, one row slice
		{"ExpandJoined", 2, func() { ExpandJoined(q, comps) }},                              // 54 → 2
		{"AppendExpanded", 0, func() { ids, _, _ = AppendExpanded(ids[:0], q, comps) }},     // new: into the decoder's slab
		{"DecodeJoined", 0, func() { s.Reset(); s.DecodeJoined(rec) }},                      // 6 → 0
		{"EncodeJoined", 1, func() { EncodeJoined(comps) }},                                 // 4 → 1: presized
		{"AppendJoined", 0, func() { s.Buf = AppendJoined(s.Buf[:0], comps) }},              // 4 → 0
		{"Compact", 0, func() { s.Reset(); s.Compact(st, gene) }},                           // 9 → 0
		{"PartialBetaUnnest", 0, func() { s.Reset(); s.PartialBetaUnnest(st, gene, 0, 4) }}, // 64 → 0
		{"PinBound", 0, func() { s.Reset(); s.PinBound(st, gene, 1) }},                      // 27 → 0
		{"UnnestSlot", 0, func() { s.Reset(); s.UnnestSlot(st, gene, 0) }},                  // 160 → 0
		{"UnbGrpFilter", 0, func() { // 20 → 0
			s.Reset()
			s.UnbGrpFilter(TripleGroup{Subject: gene.Subject, Triples: gene.Triples}, q.Stars)
		}},
		{"pooled", 0, func() { p := GetScratch(); p.UnnestSlot(st, gene, 0); p.Release() }},
	} {
		c.op() // grow the slabs once
		if got := testing.AllocsPerRun(100, c.op); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestEncodedSizeIsExact: EncodedSize is arithmetic, and every encoder
// presizes with it, so it must equal the encoding's length exactly.
func TestEncodedSizeIsExact(t *testing.T) {
	q, gene, comps := allocFixture(t)
	const maxID = rdf.ID(1<<32 - 1)
	cases := map[string]AnnTG{
		"zero":            {},
		"nested":          gene,
		"pinned":          comps[0],
		"empty selection": {Subject: 7, EC: 3, Triples: []PO{{1, 2}}, BoundSel: []int{}, SlotSel: nil},
		"max ID":          {Subject: maxID, EC: 1 << 20, Triples: []PO{{maxID, maxID}, {1 << 7, 1<<14 - 1}}, BoundSel: []int{1, Nested}, SlotSel: []int{0}},
	}
	for i, p := range new(Scratch).BetaUnnest(q.Stars[0], gene) {
		cases[fmt.Sprintf("perfect %d", i)] = p
	}
	var all []AnnTG
	for name, a := range cases {
		if got, want := EncodedSize(a), len(EncodeAnnTG(a)); got != want {
			t.Errorf("%s: EncodedSize = %d, encoding is %d bytes", name, got, want)
		}
		all = append(all, a)
	}
	enc := EncodeJoined(all)
	if cap(enc) > len(enc)+8 { // one allocation, rounded up to a size class at most
		t.Errorf("EncodeJoined presized %d bytes for a %d-byte record", cap(enc), len(enc))
	}
	if back, err := DecodeJoined(enc); err != nil || len(back) != len(all) {
		t.Errorf("joined roundtrip: %d components, %v", len(back), err)
	}
}

// TestResultsDoNotShareGrowth: rows of one expansion share a slab, and a
// Scratch's results share its slabs, but each is clipped to its own extent —
// appending to one must reallocate, never write into its neighbour.
func TestResultsDoNotShareGrowth(t *testing.T) {
	q, gene, comps := allocFixture(t)
	for name, rows := range map[string][]query.Row{"Expand": Expand(q, gene), "ExpandJoined": mustRows(t, q, comps)} {
		next := rows[1].Clone()
		_ = append(rows[0], 99, 99)
		if !rows[1].Equal(next) {
			t.Errorf("%s: appending to row 0 changed row 1: %v, was %v", name, rows[1], next)
		}
	}
	var s Scratch
	pins := s.PinBound(q.Stars[0], gene, 1)
	next := pins[1].String()
	_ = append(pins[0].Triples, PO{99, 99})
	_ = append(pins[0].SlotSel, 99)
	if got := pins[1].String(); got != next {
		t.Errorf("appending to one PinBound result changed its neighbour: %s, was %s", got, next)
	}
	// What a Scratch built stays intact while later, larger work grows its slabs.
	for i := 0; i < 200; i++ {
		s.UnnestSlot(q.Stars[0], gene, 0)
	}
	if got := pins[1].String(); got != next {
		t.Errorf("later operators disturbed an earlier result: %s, was %s", got, next)
	}
}

func mustRows(t *testing.T, q *query.Query, comps []AnnTG) []query.Row {
	t.Helper()
	rows, err := ExpandJoined(q, comps)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReleaseDropsOversizedSlabs: a pooled Scratch may not keep more than
// chunk.MaxPooled bytes, or one huge reduce group would stay in the live heap.
func TestReleaseDropsOversizedSlabs(t *testing.T) {
	_, gene, _ := allocFixture(t)
	small, big := new(Scratch), new(Scratch)
	small.Concat([]AnnTG{gene}, nil)
	small.Buf = append(small.Buf, 1)
	for 96*cap(big.tgs) <= chunk.MaxPooled { // the slab in use, not the full ones left behind
		big.Concat([]AnnTG{gene}, nil)
	}
	small.Release()
	big.Release()
	if cap(small.tgs) == 0 || cap(small.Buf) == 0 || len(small.tgs) != 0 {
		t.Errorf("Release of a small Scratch: tgs len %d cap %d, Buf cap %d; want reset, capacity kept",
			len(small.tgs), cap(small.tgs), cap(small.Buf))
	}
	if cap(big.tgs) != 0 {
		t.Errorf("Release kept a %d-component slab (over %d bytes)", cap(big.tgs), chunk.MaxPooled)
	}
}
