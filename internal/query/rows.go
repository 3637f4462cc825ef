package query

import (
	"fmt"
	"sort"
	"strings"

	"ntga/internal/rdf"
)

// Row is one result binding: Row[i] is the ID bound to Query.AllVars[i].
// Basic graph patterns always bind every variable, so NoID never appears in
// a complete row.
type Row []rdf.ID

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Less orders rows lexicographically.
func (r Row) Less(o Row) bool {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if r[i] != o[i] {
			return r[i] < o[i]
		}
	}
	return len(r) < len(o)
}

// Equal reports element-wise equality.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// SortRows orders rows lexicographically in place.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
}

// CanonicalRows returns a sorted copy, with exact duplicates removed when
// distinct is set — the canonical form used to compare engine outputs.
func CanonicalRows(rows []Row, distinct bool) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	SortRows(out)
	if !distinct {
		return out
	}
	dedup := out[:0]
	for i, r := range out {
		if i > 0 && r.Equal(out[i-1]) {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// RowsEqual compares two row multisets (order-insensitive).
func RowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	ca := CanonicalRows(a, false)
	cb := CanonicalRows(b, false)
	for i := range ca {
		if !ca[i].Equal(cb[i]) {
			return false
		}
	}
	return true
}

// DiffRows returns a short human-readable description of the first
// differences between two canonicalized row multisets (for test failures).
func DiffRows(a, b []Row, limit int) string {
	ca := CanonicalRows(a, false)
	cb := CanonicalRows(b, false)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d vs %d rows", len(ca), len(cb))
	i, j, shown := 0, 0, 0
	for (i < len(ca) || j < len(cb)) && shown < limit {
		switch {
		case j >= len(cb) || (i < len(ca) && ca[i].Less(cb[j])):
			fmt.Fprintf(&sb, "\n  only in A: %v", ca[i])
			i++
			shown++
		case i >= len(ca) || cb[j].Less(ca[i]):
			fmt.Fprintf(&sb, "\n  only in B: %v", cb[j])
			j++
			shown++
		default:
			i++
			j++
		}
	}
	return sb.String()
}

// Project reduces a full row to the query's selected variables.
func (q *Query) Project(r Row) Row {
	out := make(Row, len(q.Select))
	for i, v := range q.Select {
		out[i] = r[q.VarIdx[v]]
	}
	return out
}

// ProjectAll projects every row and applies DISTINCT if the query asks
// for it.
func (q *Query) ProjectAll(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = q.Project(r)
	}
	if q.Distinct {
		out = CanonicalRows(out, true)
	}
	return out
}

// Render is the one result rendering every front end prints or ships: the
// header (?v per selected variable, or ?count for COUNT(*)) and, unless
// the query counts, every projected row formatted by FormatRow.
func (q *Query) Render(rows []Row) (header, text []string) {
	if q.IsCount() {
		return []string{"?" + q.Src.CountVar}, nil
	}
	header = make([]string, len(q.Select))
	for i, v := range q.Select {
		header[i] = "?" + v
	}
	projected := q.ProjectAll(rows)
	text = make([]string, len(projected))
	for i, r := range projected {
		text[i] = q.FormatRow(r)
	}
	return header, text
}

// FormatRow renders a projected row with decoded terms, for display.
func (q *Query) FormatRow(r Row) string {
	parts := make([]string, len(r))
	for i, id := range r {
		if id == rdf.NoID {
			parts[i] = "_"
			continue
		}
		parts[i] = q.Dict.Decode(id).String()
	}
	return strings.Join(parts, "\t")
}
