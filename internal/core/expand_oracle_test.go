package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// appendExpandedByRow is AppendExpanded as it was before the column fill:
// it clears the new rows, then walks them one at a time and finds each
// binder's candidate by division and modulo, looking every column up in
// q.VarIdx. It is the oracle the column fill is held to.
func appendExpandedByRow(dst []rdf.ID, q *query.Query, comps []AnnTG) ([]rdf.ID, int, error) {
	var idxBuf [64]int
	var binderBuf [16]binder
	idx, binders := idxBuf[:0], binderBuf[:0]
	col := func(v string) int {
		if v == "" {
			return -1
		}
		return q.VarIdx[v]
	}
	total := min(len(comps), 1)
	add := func(ci, pCol, oCol, lo int) {
		n := len(idx) - lo
		if pCol < 0 && oCol < 0 {
			total *= min(n, 1)
			idx = idx[:lo]
			return
		}
		total *= n
		binders = append(binders, binder{comp: ci, lo: lo, n: n, pCol: pCol, oCol: oCol})
	}
	for ci, a := range comps {
		st := q.Stars[a.EC]
		if c := col(st.SubjVar); c >= 0 {
			binders = append(binders, binder{comp: ci, lo: -1, n: 1, pCol: -1, oCol: c})
		}
		for bi, b := range st.Bound {
			lo := len(idx)
			idx = a.BoundCandidates(idx, st, bi)
			add(ci, -1, col(b.OVar), lo)
		}
		for si, sl := range st.Slots {
			lo := len(idx)
			idx = a.SlotCandidates(idx, st, si)
			add(ci, col(sl.PVar), col(sl.OVar), lo)
		}
	}
	if total == 0 {
		return dst, 0, nil
	}
	for i, every := len(binders)-1, 1; i >= 0; i-- {
		binders[i].every = every
		every *= binders[i].n
	}
	width := len(q.AllVars)
	start := len(dst)
	out := slices.Grow(dst, total*width)[:start+total*width]
	clear(out[start:])
	for r := 0; r < total; r++ {
		row := out[start+r*width : start+(r+1)*width]
		for _, b := range binders {
			c := &comps[b.comp]
			pair := PO{O: c.Subject}
			if b.lo >= 0 {
				pair = c.Triples[idx[b.lo+r/b.every%b.n]]
			}
			if b.pCol >= 0 {
				row[b.pCol] = pair.P
			}
			if b.oCol >= 0 {
				if row[b.oCol] != rdf.NoID && row[b.oCol] != pair.O {
					return dst, 0, fmt.Errorf("core: conflicting bindings while expanding joined triplegroup (ec=%d)", c.EC)
				}
				row[b.oCol] = pair.O
			}
		}
	}
	return out, total, nil
}

// expandOracleQueries cover a join on a bound object, a join on an unbound
// slot's object, a constant-object bound pattern, a constant subject, a
// FILTER that empties candidate sets, and a star of 20 unbound slots (more
// than the 16 binders AppendExpanded keeps on its stack).
func expandOracleQueries() []struct{ name, src string } {
	var many strings.Builder
	for i := range 20 {
		fmt.Fprintf(&many, " ?s ?p%d ?o%d .", i, i)
	}
	return []struct{ name, src string }{
		{"bound join", `PREFIX ex: <http://ex/>
SELECT * WHERE { ?a ex:p0 ?b . ?a ?pa ?c . ?a ex:p1 ex:k . ?b ex:p2 ?d . ?b ?pb ?e . }`},
		{"slot join", `PREFIX ex: <http://ex/>
SELECT * WHERE { ?a ?pa ?b . ?a ex:p0 ?c . ?b ex:p1 ?d . ?d ?pd ?e . }`},
		{"constant subject", `PREFIX ex: <http://ex/>
SELECT * WHERE { ex:k ex:p0 ?b . ex:k ?p ?c . ?b ex:p1 ?d . }`},
		{"filtered slot", `PREFIX ex: <http://ex/>
SELECT * WHERE { ?a ex:p0 ?b . ?a ?p ?c . FILTER(?p = ex:p3) }`},
		{"twenty slots", `PREFIX ex: <http://ex/>
SELECT * WHERE {` + many.String() + ` }`},
	}
}

// oracleDict interns ex:p0…p5, ex:k and the objects ex:o0…o3 the random
// records draw from, and returns their IDs.
func oracleDict() (*rdf.Dict, []rdf.ID, []rdf.ID) {
	d := rdf.NewDict()
	var props, objs []rdf.ID
	for i := range 6 {
		props = append(props, d.Encode(ex(fmt.Sprintf("p%d", i))))
	}
	for i := range 4 {
		objs = append(objs, d.Encode(ex(fmt.Sprintf("o%d", i))))
	}
	objs = append(objs, d.Encode(ex("k")))
	return d, props, objs
}

// randomComponent builds an AnnTG of star st: a subject, up to maxPairs
// pairs and, for most bound patterns, one more pair with its property, all
// drawn from small ID sets (so joined components agree about as often
// as they conflict), each pattern pinned to one of its candidates or left
// nested at random.
func randomComponent(rng *rand.Rand, st *query.Star, props, objs []rdf.ID, maxPairs int) AnnTG {
	a := AnnTG{EC: st.Index, Subject: objs[rng.Intn(len(objs))]}
	if st.SubjVar == "" {
		a.Subject = objs[len(objs)-1] // ex:k
	}
	for range rng.Intn(maxPairs + 1) {
		a.Triples = append(a.Triples, PO{P: props[rng.Intn(len(props))], O: objs[rng.Intn(len(objs))]})
	}
	for _, b := range st.Bound { // most bound patterns get a pair of their own
		if o := objs[rng.Intn(len(objs))]; rng.Intn(4) > 0 {
			if b.OVar == "" {
				o = objs[len(objs)-1] // the queries' one constant object, ex:k
			}
			a.Triples = append(a.Triples, PO{P: b.Prop, O: o})
		}
	}
	pin := func(cands []int) int {
		if len(cands) == 0 || rng.Intn(3) == 0 {
			return Nested
		}
		return cands[rng.Intn(len(cands))]
	}
	var buf []int
	a.BoundSel = make([]int, len(st.Bound))
	for bi := range st.Bound {
		a.BoundSel[bi] = Nested
		a.BoundSel[bi] = pin(a.BoundCandidates(buf[:0], st, bi))
	}
	a.SlotSel = make([]int, len(st.Slots))
	for si := range st.Slots {
		a.SlotSel[si] = Nested
		a.SlotSel[si] = pin(a.SlotCandidates(buf[:0], st, si))
	}
	return a
}

// TestAppendExpandedMatchesRowOracle holds the column fill to the per-row
// expansion on random records of every query above: the same slab, the same
// row count, an error exactly when the oracle errs, and dst handed back as
// it came on an error, whatever was in front of the new rows.
func TestAppendExpandedMatchesRowOracle(t *testing.T) {
	dict, props, objs := oracleDict()
	rng := rand.New(rand.NewSource(50))
	for _, c := range expandOracleQueries() {
		q, err := query.Compile(sparql.MustParse(c.src), dict)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		maxPairs := 6
		if len(q.Stars[0].Slots) > 16 {
			maxPairs = 3 // 20 nested slots of 3 pairs would be 3^20 rows
		}
		var rowsOut, conflicts, empty int
		for trial := range 400 {
			comps := make([]AnnTG, 1+rng.Intn(len(q.Stars)))
			for i := range comps {
				comps[i] = randomComponent(rng, q.Stars[i], props, objs, maxPairs)
			}
			if a := &comps[0]; len(a.SlotSel) > 16 {
				// Slot 0 nested over 70 pairs and the rest pinned to pair 0:
				// more than 64 candidates, still few rows. Every fifth
				// record has no pair, so no rows.
				a.Triples = a.Triples[:0]
				for trial%5 != 0 && len(a.Triples) < 70 {
					a.Triples = append(a.Triples, PO{P: props[rng.Intn(len(props))], O: rdf.ID(1000 + len(a.Triples))})
				}
				for si := range a.SlotSel {
					a.SlotSel[si] = Nested
					if si > 0 && len(a.Triples) > 0 {
						a.SlotSel[si] = 0
					}
				}
			}
			prefix := []rdf.ID{rdf.ID(trial), 9}
			if trial%2 == 1 {
				// Room to write past len without growing, holding junk the
				// expansion must overwrite wherever it lays out a row.
				prefix = slices.Grow(prefix, 1<<10)
				junk := prefix[len(prefix):cap(prefix)]
				for i := range junk {
					junk[i] = 0xdead
				}
			}
			want, wantN, wantErr := appendExpandedByRow(slices.Clone(prefix), q, comps)
			got, gotN, gotErr := AppendExpanded(prefix, q, comps)
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Fatalf("%s trial %d: error %v, oracle %v\ncomps %v", c.name, trial, gotErr, wantErr, comps)
			case gotErr != nil:
				conflicts++
				if gotN != 0 || len(got) != len(prefix) || !slices.Equal(got, prefix) {
					t.Fatalf("%s trial %d: a conflict returned %v, %d rows; want dst %v", c.name, trial, got, gotN, prefix)
				}
			case gotN != wantN || !slices.Equal(got, want):
				t.Fatalf("%s trial %d: %d rows %v, oracle %d rows %v\ncomps %v", c.name, trial, gotN, got, wantN, want, comps)
			case gotN == 0:
				empty++
			default:
				rowsOut += gotN
			}
		}
		t.Logf("%s: %d rows, %d conflicts, %d empty", c.name, rowsOut, conflicts, empty)
		if rowsOut == 0 || empty == 0 {
			t.Errorf("%s: the random records never expanded (%d rows) or were never empty (%d)", c.name, rowsOut, empty)
		}
		if len(q.Stars) > 1 && conflicts == 0 {
			t.Errorf("%s: no random record conflicted; the join check went unexercised", c.name)
		}
	}
}
