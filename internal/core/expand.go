package core

import (
	"fmt"
	"slices"

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

// binder is one digit of AppendExpanded's odometer: a binding pattern of one
// component, its n candidate pairs idx[lo:lo+n], the row columns it fills
// (-1 for none), and how many consecutive rows hold one candidate (every).
// A component's subject variable is a one-candidate binder with lo < 0.
// joined says an earlier binder filled oCol already (a join variable), so
// each of its cells must agree rather than be written.
type binder struct {
	comp, lo, n, every int
	pCol, oCol         int
	joined             bool
}

// ExpandJoined enumerates the full rows of a joined result, as
// AppendExpanded lays them out. The rows of one call share one backing
// array, each clipped to its own width, and belong to the caller.
func ExpandJoined(q *query.Query, comps []AnnTG) ([]query.Row, error) {
	slab, n, err := AppendExpanded(nil, q, comps)
	if err != nil || n == 0 {
		return nil, err
	}
	return query.AppendSlabRows(make([]query.Row, 0, n), slab, len(q.AllVars), n), nil
}

// AppendExpanded appends the full rows of a joined result to dst, row after
// row, each len(q.AllVars) IDs wide, and returns the extended slab and the
// number of rows appended. The rows are the cross product of every pattern's
// candidates over all components, the first pattern of the first component
// varying slowest; a column no pattern binds holds NoID. Components are
// AnnTGs of distinct stars whose join variables were pinned when the join
// executed, so two components never bind one variable to different IDs:
// that would be an engine bug, and is an error, with dst returned as it
// came. Nothing is allocated unless dst has to grow (or the query has more
// than 64 variables).
//
// The slab is filled column by column: a pattern's column is runs of every
// equal cells, one run per candidate, repeated until the rows end, so the
// cost is one store per cell and one pair lookup per run.
func AppendExpanded(dst []rdf.ID, q *query.Query, comps []AnnTG) ([]rdf.ID, int, error) {
	var idxBuf [64]int
	var binderBuf [16]binder
	idx, binders := idxBuf[:0], binderBuf[:0]
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
	for ci := range comps {
		a := &comps[ci]
		st := q.Stars[a.EC]
		if st.SubjCol >= 0 {
			binders = append(binders, binder{comp: ci, lo: -1, n: 1, pCol: -1, oCol: st.SubjCol})
		}
		for bi := range st.Bound {
			lo := len(idx)
			idx = a.BoundCandidates(idx, st, bi)
			add(ci, -1, st.Bound[bi].OCol, lo)
		}
		for si := range st.Slots {
			lo := len(idx)
			idx = a.SlotCandidates(idx, st, si)
			add(ci, st.Slots[si].PCol, st.Slots[si].OCol, lo)
		}
	}
	if total == 0 {
		return dst, 0, nil
	}
	width := len(q.AllVars)
	var filledBuf [64]bool // filled[c]: some binder writes column c
	filled := filledBuf[:min(width, len(filledBuf))]
	if width > len(filledBuf) {
		filled = make([]bool, width)
	}
	for i, every := len(binders)-1, 1; i >= 0; i-- {
		binders[i].every = every
		every *= binders[i].n
	}
	for i := range binders {
		b := &binders[i]
		if b.pCol >= 0 {
			filled[b.pCol] = true
		}
		if b.oCol >= 0 {
			b.joined = filled[b.oCol]
			filled[b.oCol] = true
		}
	}

	start := len(dst)
	out := slices.Grow(dst, total*width)[:start+total*width]
	rows := out[start:]
	for col, f := range filled {
		if !f {
			for p := col; p < len(rows); p += width {
				rows[p] = rdf.NoID
			}
		}
	}
	for _, b := range binders {
		c := &comps[b.comp]
		run := b.every * width // slab cells of one candidate's run
		for base := 0; base < len(rows); {
			for k := range b.n {
				pair := PO{O: c.Subject}
				if b.lo >= 0 {
					pair = c.Triples[idx[b.lo+k]]
				}
				end := base + run
				if b.pCol >= 0 {
					for p := base + b.pCol; p < end; p += width {
						rows[p] = pair.P
					}
				}
				switch {
				case b.oCol < 0:
				case b.joined:
					for p := base + b.oCol; p < end; p += width {
						if rows[p] != rdf.NoID && rows[p] != pair.O {
							return dst, 0, fmt.Errorf("core: conflicting bindings while expanding joined triplegroup (ec=%d)", c.EC)
						}
						rows[p] = pair.O
					}
				default:
					for p := base + b.oCol; p < end; p += width {
						rows[p] = pair.O
					}
				}
				base = end
			}
		}
	}
	return out, total, nil
}

// AppendRows appends the binding rows of a joined result to dst as
// AppendExpanded lays them out or, for a COUNT(*) query, appends nothing and
// returns the number of rows the result stands for (CountJoined). It is the
// one expansion of a final record, whether the record arrives encoded or as
// components.
func AppendRows(dst []rdf.ID, q *query.Query, comps []AnnTG) ([]rdf.ID, int64, error) {
	if q.IsCount() {
		return dst, CountJoined(q, comps), nil
	}
	dst, rows, err := AppendExpanded(dst, q, comps)
	return dst, int64(rows), err
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
	for bi := range st.Bound {
		n := int64(len(a.BoundCandidates(buf[:0], st, bi)))
		if n == 0 {
			return 0
		}
		if st.Bound[bi].OCol >= 0 {
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
