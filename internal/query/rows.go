package query

import (
	"fmt"
	"slices"
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

// AppendSlabRows appends to rows the first n rows of slab, which holds them
// back to back, each width IDs wide. Every appended row is clipped to its own
// width, so appending to one never writes into the next.
func AppendSlabRows(rows []Row, slab []rdf.ID, width, n int) []Row {
	for r := 0; r < n; r++ {
		rows = append(rows, slab[r*width:(r+1)*width:(r+1)*width])
	}
	return rows
}

// Less orders rows lexicographically.
func (r Row) Less(o Row) bool { return slices.Compare(r, o) < 0 }

// Equal reports element-wise equality.
func (r Row) Equal(o Row) bool { return slices.Equal(r, o) }

// SortRows orders rows lexicographically in place.
func SortRows(rows []Row) {
	slices.SortFunc(rows, func(a, b Row) int { return slices.Compare(a, b) })
}

// CanonicalRows returns a sorted copy, with exact duplicates removed when
// distinct is set — the canonical form used to compare engine outputs. The
// copies share one slab, each row clipped to its own width.
func CanonicalRows(rows []Row, distinct bool) []Row {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	slab := make([]rdf.ID, 0, n)
	out := make([]Row, len(rows))
	for i, r := range rows {
		start := len(slab)
		slab = append(slab, r...)
		out[i] = slab[start:len(slab):len(slab)]
	}
	return canonicalize(out, distinct)
}

// canonicalize sorts rows in place and, when distinct is set, drops exact
// duplicates.
func canonicalize(rows []Row, distinct bool) []Row {
	SortRows(rows)
	if distinct {
		rows = slices.CompactFunc(rows, Row.Equal)
	}
	return rows
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

// ProjectAll projects every row and applies DISTINCT if the query asks
// for it. The projected rows share one slab, each clipped to its own width.
func (q *Query) ProjectAll(rows []Row) []Row {
	idx := q.selected(make([]int, 0, 16))
	k := len(idx)
	slab := make([]rdf.ID, len(rows)*k)
	out := make([]Row, len(rows))
	for i, r := range rows {
		p := Row(slab[i*k : (i+1)*k : (i+1)*k])
		for j, c := range idx {
			p[j] = r[c]
		}
		out[i] = p
	}
	if q.Distinct {
		out = canonicalize(out, true)
	}
	return out
}

// selected appends the row index of every selected variable to dst.
func (q *Query) selected(dst []int) []int {
	for _, v := range q.Select {
		dst = append(dst, q.VarIdx[v])
	}
	return dst
}

// Render is the one result rendering every front end prints or ships: the
// header (?v per selected variable, or ?count for COUNT(*)) and, unless
// the query counts, every projected row formatted as FormatRow formats it.
//
// Header and rows are written into one string, sized exactly up front, and
// every returned string is a substring of it: Render allocates per result,
// not per row or term. Without DISTINCT the selected columns are read
// straight from the full rows; with it, rows are projected (ProjectAll)
// first.
func (q *Query) Render(rows []Row) (header, text []string) {
	if q.IsCount() {
		return []string{"?" + q.Src.CountVar}, nil
	}
	rows, idx := q.columns(rows, make([]int, 0, 16))
	cols := make([]rdf.ID, 0, 16)
	project := func(r Row) []rdf.ID {
		cols = cols[:0]
		for _, c := range idx {
			cols = append(cols, r[c])
		}
		return cols
	}

	n := q.headerLen()
	for _, r := range rows {
		n += q.Dict.NTLen(project(r)...)
	}
	var sb strings.Builder
	sb.Grow(n)
	header = q.writeHeader(&sb)
	text = make([]string, len(rows))
	line := make([]byte, 0, 512)
	for i, r := range rows {
		start := sb.Len()
		line = q.Dict.AppendNT(line[:0], '\t', project(r)...)
		sb.Write(line)
		text[i] = sb.String()[start:]
	}
	return header, text
}

// RenderTable is Render as a term table: the same header, every distinct
// rendered term once (terms, numbered in order of first use), and one index
// into terms per projected cell (cells, row-major, len(header) wide). Joining
// a row's terms with '\t' gives exactly the row Render returns; an unbound
// cell is the term "_". A COUNT query has a header only.
//
// Header and terms are written into one string, sized exactly up front, of
// which each returned string is a substring, and every term is rendered
// once: the cost follows the distinct terms, not the cells.
func (q *Query) RenderTable(rows []Row) (header, terms []string, cells []uint32) {
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

// columns returns the rows a rendering reads and, appended to idx, the
// column of each selected variable in them: the full rows as they are, or
// under DISTINCT the projected distinct rows (ProjectAll).
func (q *Query) columns(rows []Row, idx []int) ([]Row, []int) {
	idx = q.selected(idx)
	if q.Distinct {
		rows = q.ProjectAll(rows)
		for i := range idx {
			idx[i] = i
		}
	}
	return rows, idx
}

// headerLen is the number of bytes writeHeader writes.
func (q *Query) headerLen() int {
	n := 0
	for _, v := range q.Select {
		n += 1 + len(v)
	}
	return n
}

// writeHeader writes ?v for each selected variable to sb and returns them,
// each a substring of sb's string.
func (q *Query) writeHeader(sb *strings.Builder) []string {
	header := make([]string, len(q.Select))
	for i, v := range q.Select {
		start := sb.Len()
		sb.WriteByte('?')
		sb.WriteString(v)
		header[i] = sb.String()[start:]
	}
	return header
}

// FormatRow renders a projected row with decoded terms, tab-separated and
// "_" for an unbound cell, for display.
func (q *Query) FormatRow(r Row) string {
	return string(q.Dict.AppendNT(make([]byte, 0, 512), '\t', r...))
}
