package query

import (
	"math/bits"
	"sync"

	"ntga/internal/chunk"
	"ntga/internal/rdf"
)

// termIndex numbers the distinct IDs of one rendering in order of first use
// (RenderTable's terms) without a Go map: an open-addressed table of more
// than twice as many slots as the rendering can have distinct IDs, which
// therefore never fills. A slot holds an ID and its term number plus one,
// so 0 is a free slot, and the table is all zero between renderings:
// release clears only the slots the rendering set.
type termIndex struct {
	slots []uint64 // id<<32 | term number + 1, 0 for a free slot
	shift uint     // a slot's home is the top bits of id·φ
	ids   []rdf.ID // ids[t] is the ID of term t
}

// A pooled termIndex keeps at most chunk.MaxPooled bytes: half of it for
// the table, a quarter for the ID list (a table has at least twice as many
// slots as IDs, of twice the size).
const (
	maxPooledSlots = chunk.MaxPooled / 2 / 8
	maxPooledIDs   = chunk.MaxPooled / 4 / 4
)

var termIndexes = sync.Pool{New: func() any { return new(termIndex) }}

// getTermIndex returns an empty index from the pool for a rendering of
// cells cells whose IDs are all below span.
func getTermIndex(span, cells int) *termIndex {
	x := termIndexes.Get().(*termIndex)
	nslots := 2 << bits.Len(uint(max(min(cells, span), 1))) // > 2·distinct
	if cap(x.slots) < nslots {
		x.slots = make([]uint64, nslots)
	}
	x.slots = x.slots[:nslots]
	x.shift = uint(64 - bits.TrailingZeros(uint(nslots)))
	return x
}

// home is the slot where id's probe starts.
func (x *termIndex) home(id rdf.ID) uint64 {
	return uint64(id) * 0x9E3779B97F4A7C15 >> x.shift
}

// number writes into cells, row-major, the term number of each rows[r][c]
// for c in cols, numbering an ID the first time it appears.
func (x *termIndex) number(cells []uint32, rows []Row, cols []int) {
	k := 0
	mask := uint64(len(x.slots) - 1)
	for _, r := range rows {
		for _, c := range cols {
			id := r[c]
			h := x.home(id)
			for {
				s := x.slots[h]
				if s == 0 {
					x.ids = append(x.ids, id)
					s = uint64(id)<<32 | uint64(len(x.ids))
					x.slots[h] = s
				}
				if rdf.ID(s>>32) == id {
					cells[k] = uint32(s) - 1
					break
				}
				h = (h + 1) & mask
			}
			k++
		}
	}
}

// release clears the slots the rendering set, drops a table or list past
// its share of chunk.MaxPooled and puts the index back in the pool.
func (x *termIndex) release() {
	mask := uint64(len(x.slots) - 1)
	for t, id := range x.ids {
		want := uint64(id)<<32 | uint64(t+1)
		h := x.home(id)
		for x.slots[h] != want {
			h = (h + 1) & mask
		}
		x.slots[h] = 0
	}
	if cap(x.slots) > maxPooledSlots {
		x.slots = nil
	}
	if cap(x.ids) > maxPooledIDs {
		x.ids = nil
	}
	x.ids = x.ids[:0]
	termIndexes.Put(x)
}
