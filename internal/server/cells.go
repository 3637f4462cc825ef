package server

import "ntga/internal/query"

// A /query answer travels as a term table: every distinct rendered term once
// (Response.Terms, in order of first use), then one index into it per
// projected cell (Response.Cells, row-major, len(Header) wide). A term is
// sent once however many rows repeat it; the client joins each row's terms
// with '\t' (query.TableRows) to rebuild exactly the rows query.Render
// would have rendered.

// unpackRows sets Rows from the response's term table. The cells count the
// rows, limit-truncated or not, except that a row with no column has no
// cell: EmptyRows counts those, "" each.
func (r *Response) unpackRows() (err error) {
	w, n := len(r.Header), r.EmptyRows
	if w > 0 {
		n = len(r.Cells) / w
	}
	r.Rows, err = query.TableRows(w, n, r.Terms, r.Cells)
	return err
}
