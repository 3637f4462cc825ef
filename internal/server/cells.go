package server

import (
	"fmt"
	"strings"
)

// A /query answer travels as a term table: every distinct rendered term once
// (Response.Terms, in order of first use), then one index into it per
// projected cell (Response.Cells, row-major, len(Header) wide). A term is
// sent once however many rows repeat it; the client joins each row's terms
// with '\t' to rebuild exactly the rows query.Render would have rendered.

// maxRowBytes bounds the text tableRows rebuilds. A term table is smaller
// than its rows, so a body under the client's read limit could otherwise
// name one long term a million times and ask for terabytes.
const maxRowBytes = 1 << 30

// tableRows rebuilds a term table's rows, each the row's terms joined by
// '\t', into one exactly sized string of which every row is a substring. It
// returns an error, never panics, for a table no server could have sent:
// a cell naming a term that is not there, a cell count that does not fill
// whole rows width wide, or rows longer in total than maxRowBytes.
func tableRows(width int, terms []string, cells []uint32) ([]string, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	if width == 0 || len(cells)%width != 0 {
		return nil, fmt.Errorf("server: %d cells do not fill rows %d wide", len(cells), width)
	}
	nrows := len(cells) / width
	n := nrows * (width - 1) // the tabs
	for i, c := range cells {
		if uint64(c) >= uint64(len(terms)) {
			return nil, fmt.Errorf("server: cell %d names term %d of %d", i, c, len(terms))
		}
		if n += len(terms[c]); n > maxRowBytes {
			return nil, fmt.Errorf("server: rows exceed %d bytes", maxRowBytes)
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	rows := make([]string, nrows)
	for i := range rows {
		start := sb.Len()
		for j, c := range cells[i*width : (i+1)*width] {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(terms[c])
		}
		rows[i] = sb.String()[start:]
	}
	return rows, nil
}

// unpackRows sets Rows from the response's term table.
func (r *Response) unpackRows() (err error) {
	r.Rows, err = tableRows(len(r.Header), r.Terms, r.Cells)
	return err
}
