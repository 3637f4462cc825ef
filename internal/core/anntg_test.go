package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/sparql"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }

// paperGraph reproduces the running example around gene9: two bound
// properties (label, xGO — the latter multi-valued) and extra triples that
// match only the unbound pattern.
func paperGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.Add(ex("gene9"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	g.Add(ex("gene9"), ex("xGO"), ex("go1"))
	g.Add(ex("gene9"), ex("xGO"), ex("go9"))
	g.Add(ex("gene9"), ex("synonym"), rdf.NewLiteral("RCoR-1"))
	g.Add(ex("gene9"), ex("xRef"), ex("hs2131"))
	// homod2 lacks xGO: must be filtered out by σ^βγ.
	g.Add(ex("homod2"), ex("label"), rdf.NewLiteral("homeo domain"))
	g.Add(ex("homod2"), ex("synonym"), rdf.NewLiteral("HD-2"))
	return g
}

func compileStar(t *testing.T, g *rdf.Graph, src string) *query.Query {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return q
}

const unboundStarSrc = `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ex:xGO ?go .
  ?g ?p ?o .
}`

func TestUnbGrpFilterPaperExample(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	groups := Group(g.Triples)
	var kept []AnnTG
	for _, tg := range groups {
		kept = append(kept, UnbGrpFilter(tg, q.Stars)...)
	}
	// Only gene9 matches (homod2 lacks xGO).
	if len(kept) != 1 {
		t.Fatalf("kept %d AnnTGs, want 1", len(kept))
	}
	a := kept[0]
	if a.EC != 0 {
		t.Errorf("EC = %d", a.EC)
	}
	if len(a.Triples) != 5 {
		t.Errorf("retained %d pairs, want all 5 (unbound EC keeps everything)", len(a.Triples))
	}
	if a.FullyUnnested() {
		t.Error("fresh AnnTG should be nested")
	}
}

func TestUnbGrpFilterBoundOnlyProjects(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ex:xGO ?go .
}`)
	groups := Group(g.Triples)
	var kept []AnnTG
	for _, tg := range groups {
		kept = append(kept, UnbGrpFilter(tg, q.Stars)...)
	}
	if len(kept) != 1 {
		t.Fatalf("kept %d, want 1", len(kept))
	}
	// Bound-only equivalence class: only label + 2×xGO pairs retained
	// (Algorithm 2 line 8).
	if len(kept[0].Triples) != 3 {
		t.Errorf("retained %d pairs, want 3", len(kept[0].Triples))
	}
}

func TestBetaUnnestProducesPerfectTGs(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	groups := Group(g.Triples)
	a, ok := FilterForStar(groups[0], q.Stars[0]) // gene9 sorts first? find it
	if !ok {
		// groups sorted by subject id; find the one that matches
		for _, tg := range groups {
			if a, ok = FilterForStar(tg, q.Stars[0]); ok {
				break
			}
		}
	}
	if !ok {
		t.Fatal("no group passed the filter")
	}
	perfect := BetaUnnest(q.Stars[0], a)
	// 5 triples in the group → 5 perfect triplegroups (Figure 5(b)).
	if len(perfect) != 5 {
		t.Fatalf("BetaUnnest produced %d TGs, want 5", len(perfect))
	}
	seen := make(map[rdf.ID]bool)
	for _, p := range perfect {
		if !p.FullyUnnested() {
			t.Errorf("perfect TG still nested: %v", p)
		}
		// Each perfect TG holds the bound component (label + 2 xGO = 3
		// pairs) plus the selected unbound triple (which may coincide with
		// a bound pair).
		sel := p.Triples[p.SlotSel[0]]
		seen[sel.O] = true
		if len(p.Triples) > 4 || len(p.Triples) < 3 {
			t.Errorf("perfect TG has %d pairs: %v", len(p.Triples), p)
		}
	}
	if len(seen) != 5 {
		t.Errorf("distinct unbound selections = %d, want 5", len(seen))
	}
}

func TestBetaUnnestEqualsBucketedUnion(t *testing.T) {
	// Property (Definition 3 consistency): for any m, partial β-unnest
	// followed by per-bucket completion equals full β-unnest.
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	var a AnnTG
	found := false
	for _, tg := range Group(g.Triples) {
		if cand, ok := FilterForStar(tg, q.Stars[0]); ok {
			a = cand
			found = true
		}
	}
	if !found {
		t.Fatal("no matching group")
	}
	full := BetaUnnest(q.Stars[0], a)
	for _, m := range []int{1, 2, 3, 7, 64} {
		var viaBuckets []AnnTG
		parts := PartialBetaUnnest(q.Stars[0], a, 0, m)
		for _, pt := range parts {
			done := UnnestSlotInBucket(q.Stars[0], pt.TG, 0, m, pt.Bucket)
			for _, d := range done {
				viaBuckets = append(viaBuckets, Compact(q.Stars[0], d))
			}
		}
		if len(viaBuckets) != len(full) {
			t.Errorf("m=%d: bucketed unnest produced %d TGs, full produced %d",
				m, len(viaBuckets), len(full))
			continue
		}
		// Compare the selected unbound pairs as multisets.
		count := func(tgs []AnnTG) map[PO]int {
			c := make(map[PO]int)
			for _, tg := range tgs {
				c[tg.Triples[tg.SlotSel[0]]]++
			}
			return c
		}
		if !reflect.DeepEqual(count(full), count(viaBuckets)) {
			t.Errorf("m=%d: selections differ: %v vs %v", m, count(full), count(viaBuckets))
		}
	}
}

func TestPartialBetaUnnestBucketCount(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	var a AnnTG
	for _, tg := range Group(g.Triples) {
		if cand, ok := FilterForStar(tg, q.Stars[0]); ok {
			a = cand
		}
	}
	// m=1: everything in one bucket — a single partial TG identical in
	// pair content to the input.
	parts := PartialBetaUnnest(q.Stars[0], a, 0, 1)
	if len(parts) != 1 || parts[0].Bucket != 0 {
		t.Fatalf("m=1 parts = %v", parts)
	}
	if len(parts[0].TG.Triples) != len(a.Triples) {
		t.Errorf("m=1 partial TG dropped pairs: %d vs %d", len(parts[0].TG.Triples), len(a.Triples))
	}
	// Large m: at most one candidate per bucket — degenerates to full
	// unnest cardinality.
	parts = PartialBetaUnnest(q.Stars[0], a, 0, 1<<20)
	if len(parts) != 5 {
		t.Errorf("large-m parts = %d, want 5", len(parts))
	}
}

func TestPinBoundSplitsMultiValued(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	var a AnnTG
	for _, tg := range Group(g.Triples) {
		if cand, ok := FilterForStar(tg, q.Stars[0]); ok {
			a = cand
		}
	}
	// Bound pattern 1 is xGO (multi-valued ×2).
	xgoIdx := -1
	for bi, b := range q.Stars[0].Bound {
		if b.OVar == "go" {
			xgoIdx = bi
		}
	}
	if xgoIdx < 0 {
		t.Fatal("xGO pattern not found")
	}
	pinned := PinBound(q.Stars[0], a, xgoIdx)
	if len(pinned) != 2 {
		t.Fatalf("PinBound produced %d, want 2", len(pinned))
	}
	vals := make(map[rdf.ID]bool)
	for _, p := range pinned {
		if p.BoundSel[xgoIdx] == Nested {
			t.Error("pinned TG not pinned")
			continue
		}
		vals[p.Triples[p.BoundSel[xgoIdx]].O] = true
		v, err := JoinValue(q.Stars[0], p, query.Pos{Star: 0, Role: query.RoleBoundObj, Idx: xgoIdx})
		if err != nil || !vals[v] {
			t.Errorf("JoinValue = %d, %v", v, err)
		}
	}
	if len(vals) != 2 {
		t.Errorf("distinct pinned values = %d, want 2", len(vals))
	}
}

func TestJoinValueErrors(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	var a AnnTG
	for _, tg := range Group(g.Triples) {
		if cand, ok := FilterForStar(tg, q.Stars[0]); ok {
			a = cand
		}
	}
	if _, err := JoinValue(q.Stars[0], a, query.Pos{Star: 0, Role: query.RoleSlotObj, Idx: 0}); err == nil {
		t.Error("JoinValue on nested slot should error")
	}
	if _, err := JoinValue(q.Stars[0], a, query.Pos{Star: 0, Role: query.RoleBoundObj, Idx: 0}); err == nil {
		t.Error("JoinValue on unpinned bound pattern should error")
	}
	if v, err := JoinValue(q.Stars[0], a, query.Pos{Star: 0, Role: query.RoleSubject}); err != nil || v != a.Subject {
		t.Errorf("JoinValue(subject) = %d, %v", v, err)
	}
}

// TestLemma1ContentEquivalence is the paper's Lemma 1 as a property test:
// for random data and random unbound-property star patterns, the rows
// produced by relational evaluation (the reference engine) equal the rows
// obtained by γ → σ^βγ → μ^β → expand. It also checks the lazy form:
// expanding the *nested* AnnTG directly yields the same rows, i.e. the
// implicit representation is lossless.
func TestLemma1ContentEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nSubj := 1 + rng.Intn(6)
		nProp := 2 + rng.Intn(5)
		nObj := 2 + rng.Intn(8)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			g.Add(
				ex(fmt.Sprintf("s%d", rng.Intn(nSubj))),
				ex(fmt.Sprintf("p%d", rng.Intn(nProp))),
				ex(fmt.Sprintf("o%d", rng.Intn(nObj))),
			)
		}
		g.Dedup()
		if g.Len() == 0 {
			return true
		}
		// Random star: 1-2 bound properties, 1-2 unbound slots, optional
		// object filter on a slot.
		src := "PREFIX ex: <http://ex/>\nSELECT * WHERE {\n"
		nBound := 1 + rng.Intn(2)
		for b := 0; b < nBound; b++ {
			src += fmt.Sprintf("  ?s ex:p%d ?b%d .\n", rng.Intn(nProp), b)
		}
		nSlots := 1 + rng.Intn(2)
		for s := 0; s < nSlots; s++ {
			src += fmt.Sprintf("  ?s ?u%d ?uo%d .\n", s, s)
		}
		if rng.Intn(2) == 0 {
			src += fmt.Sprintf("  FILTER(?uo0 != ex:o%d)\n", rng.Intn(nObj))
		}
		src += "}"
		pq, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		q, err := query.Compile(pq, g.Dict)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		want := refengine.Evaluate(q, g)

		var eager, lazy []query.Row
		for _, tg := range Group(g.Triples) {
			for _, a := range UnbGrpFilter(tg, q.Stars) {
				lazy = append(lazy, Expand(q, a)...)
				for _, p := range BetaUnnest(q.Stars[0], a) {
					eager = append(eager, Expand(q, p)...)
				}
			}
		}
		if !query.RowsEqual(want, eager) {
			t.Logf("seed %d query:\n%s\neager mismatch: %s", seed, src, query.DiffRows(want, eager, 5))
			return false
		}
		if !query.RowsEqual(want, lazy) {
			t.Logf("seed %d query:\n%s\nlazy mismatch: %s", seed, src, query.DiffRows(want, lazy, 5))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAnnTGEncodeRoundtripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10)
		a := AnnTG{
			Subject: rdf.ID(1 + rng.Intn(1000)),
			EC:      rng.Intn(5),
			Triples: make([]PO, n),
		}
		for i := range a.Triples {
			a.Triples[i] = PO{P: rdf.ID(1 + rng.Intn(50)), O: rdf.ID(1 + rng.Intn(500))}
		}
		nb, ns := rng.Intn(3), rng.Intn(3)
		for i := 0; i < nb; i++ {
			a.BoundSel = append(a.BoundSel, selOrNested(rng, n))
		}
		for i := 0; i < ns; i++ {
			a.SlotSel = append(a.SlotSel, selOrNested(rng, n))
		}
		got, err := DecodeAnnTG(EncodeAnnTG(a))
		if err != nil {
			return false
		}
		return annTGEqual(a, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func selOrNested(rng *rand.Rand, n int) int {
	if n == 0 || rng.Intn(2) == 0 {
		return Nested
	}
	return rng.Intn(n)
}

func annTGEqual(a, b AnnTG) bool {
	if a.Subject != b.Subject || a.EC != b.EC || len(a.Triples) != len(b.Triples) {
		return false
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			return false
		}
	}
	return intSliceEq(a.BoundSel, b.BoundSel) && intSliceEq(a.SlotSel, b.SlotSel)
}

func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinedEncodeRoundtrip(t *testing.T) {
	comps := []AnnTG{
		{Subject: 1, EC: 0, Triples: []PO{{2, 3}, {4, 5}}, BoundSel: []int{0}, SlotSel: []int{1}},
		{Subject: 9, EC: 1, Triples: []PO{{6, 7}}, BoundSel: []int{Nested}, SlotSel: nil},
	}
	got, err := DecodeJoined(EncodeJoined(comps))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !annTGEqual(got[0], comps[0]) || !annTGEqual(got[1], comps[1]) {
		t.Errorf("roundtrip = %v", got)
	}
	// Corruption handling.
	if _, err := DecodeJoined([]byte{0xFF}); err == nil {
		t.Error("corrupt joined record decoded")
	}
	if _, err := DecodeAnnTG([]byte{1, 0, 1, 2}); err == nil {
		t.Error("truncated AnnTG decoded")
	}
	// Out-of-range selection.
	bad := EncodeAnnTG(AnnTG{Subject: 1, Triples: []PO{{1, 1}}, BoundSel: []int{5}})
	if _, err := DecodeAnnTG(bad); err == nil {
		t.Error("out-of-range selection decoded")
	}
	// Trailing bytes.
	good := EncodeAnnTG(comps[1])
	if _, err := DecodeAnnTG(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodedSizeTracksNesting(t *testing.T) {
	g := paperGraph()
	q := compileStar(t, g, unboundStarSrc)
	var a AnnTG
	for _, tg := range Group(g.Triples) {
		if cand, ok := FilterForStar(tg, q.Stars[0]); ok {
			a = cand
		}
	}
	nestedSize := EncodedSize(a)
	var unnestedSize int
	for _, p := range BetaUnnest(q.Stars[0], a) {
		unnestedSize += EncodedSize(p)
	}
	if unnestedSize <= nestedSize {
		t.Errorf("unnested total %d should exceed nested %d (that is the paper's whole point)",
			unnestedSize, nestedSize)
	}
}

// TestExpandJoinedConflict: two components that bind one variable to
// different IDs mean the join that put them together was wrong; expansion
// must say so instead of picking one.
func TestExpandJoinedConflict(t *testing.T) {
	q, _, comps := allocFixture(t)
	if rows, err := ExpandJoined(q, comps); err != nil || len(rows) == 0 {
		t.Fatalf("consistent record: %d rows, %v", len(rows), err)
	}
	other := comps[1]
	other.Subject++ // no longer the GO term the gene's xGO was pinned to
	if rows, err := ExpandJoined(q, []AnnTG{comps[0], other}); err == nil {
		t.Errorf("conflicting ?go bindings expanded to %d rows", len(rows))
	}
	if rows, err := ExpandJoined(q, nil); rows != nil || err != nil {
		t.Errorf("no components: %v, %v", rows, err)
	}
	// Appending keeps what the slab held; a conflict hands it back unchanged.
	prefix := []rdf.ID{7, 8}
	out, n, err := AppendExpanded(prefix, q, comps)
	if rows := mustRows(t, q, comps); err != nil || n != len(rows) || out[0] != 7 || out[1] != 8 ||
		!slices.Equal(out[2:], slices.Concat(rows...)) {
		t.Errorf("AppendExpanded after a prefix: %d rows, %v", n, err)
	}
	out, n, err = AppendExpanded(prefix, q, []AnnTG{comps[0], other})
	if err == nil || n != 0 || !slices.Equal(out, []rdf.ID{7, 8}) {
		t.Errorf("AppendExpanded on a conflict: %v, %d rows, %v", out, n, err)
	}
}
