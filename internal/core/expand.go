package core

import (
	"fmt"

	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Expand enumerates the variable bindings an AnnTG implicitly represents
// for its star: the cross product of candidates over every pattern, with
// pinned patterns contributing exactly their selection. The returned rows
// are full-width (indexed by q.AllVars) with only the star's variables
// populated; other positions stay NoID.
//
// Expand is the "content" side of the paper's content-equivalence (≅)
// between triplegroups and relational n-tuples: Lemma 1 states that
// expanding μ^β(σ^βγ(γ(T))) yields exactly the rows of the relational
// star-join plan.
func Expand(q *query.Query, a AnnTG) []query.Row {
	rows, _ := ExpandJoined(q, []AnnTG{a}) // one component cannot conflict
	return rows
}

// binder is one digit of ExpandJoined's odometer: a binding pattern of one
// component, its n candidate pairs idx[lo:lo+n], the row columns it fills
// (-1 for none), and how many rows pass between two steps of the digit. A
// component's subject variable is a one-candidate binder with lo < 0.
type binder struct {
	comp, lo, n, every int
	pCol, oCol         int
}

// ExpandJoined enumerates the full rows of a joined result: the cross
// product of every pattern's candidates over all components, the first
// pattern of the first component varying slowest. Components are AnnTGs of
// distinct stars whose join variables were pinned when the join executed, so
// two components never bind one variable to different IDs (that would be an
// engine bug, and is an error). The rows of one call share one backing
// array, each clipped to its own width, and belong to the caller.
func ExpandJoined(q *query.Query, comps []AnnTG) ([]query.Row, error) {
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
			// Constant-object bound pattern: a candidate must exist, but it
			// neither branches nor binds. (Pairs are a set, so there is one.)
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
		return nil, nil
	}
	for i, every := len(binders)-1, 1; i >= 0; i-- {
		binders[i].every = every
		every *= binders[i].n
	}
	width := len(q.AllVars)
	slab := make([]rdf.ID, total*width)
	rows := make([]query.Row, total)
	for r := range rows {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		rows[r] = row
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
					return nil, fmt.Errorf("core: conflicting bindings while expanding joined triplegroup (ec=%d)", c.EC)
				}
				row[b.oCol] = pair.O
			}
		}
	}
	return rows, nil
}

// CountExpansions returns the number of binding rows a (possibly still
// nested) AnnTG implicitly represents, without materializing them: the
// product of candidate-set sizes over all binding patterns. It equals
// len(Expand(q, a)) but runs in O(|pairs|) — the basis for answering
// COUNT(*) aggregations over the implicit representation (the paper's
// future-work "aggregation constraints").
func CountExpansions(q *query.Query, a AnnTG) int64 {
	st := q.Stars[a.EC]
	var buf [64]int
	total := int64(1)
	for bi, b := range st.Bound {
		n := int64(len(a.BoundCandidates(buf[:0], st, bi)))
		if n == 0 {
			return 0
		}
		if b.OVar != "" {
			total *= n
		}
	}
	for si := range st.Slots {
		n := int64(len(a.SlotCandidates(buf[:0], st, si)))
		if n == 0 {
			return 0
		}
		total *= n
	}
	return total
}

// CountJoined counts the rows of a joined result record without expansion:
// the product of the components' implicit expansion counts.
func CountJoined(q *query.Query, comps []AnnTG) int64 {
	total := int64(1)
	for _, c := range comps {
		total *= CountExpansions(q, c)
		if total == 0 {
			return 0
		}
	}
	return total
}

// JoinValue returns the ID a position contributes to a join for an AnnTG
// whose relevant pattern has been pinned (or is the subject).
func JoinValue(st *query.Star, a AnnTG, pos query.Pos) (rdf.ID, error) {
	switch pos.Role {
	case query.RoleSubject:
		return a.Subject, nil
	case query.RoleBoundObj:
		if a.BoundSel[pos.Idx] == Nested {
			return rdf.NoID, fmt.Errorf("core: bound pattern %d not pinned for join", pos.Idx)
		}
		return a.Triples[a.BoundSel[pos.Idx]].O, nil
	case query.RoleSlotObj:
		if a.SlotSel[pos.Idx] == Nested {
			return rdf.NoID, fmt.Errorf("core: unbound slot %d not pinned for join", pos.Idx)
		}
		return a.Triples[a.SlotSel[pos.Idx]].O, nil
	default:
		return rdf.NoID, fmt.Errorf("core: unknown role %v", pos.Role)
	}
}
