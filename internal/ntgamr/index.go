package ntgamr

import (
	"fmt"
	"sync"

	"ntga/internal/chunk"
	"ntga/internal/core"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// joinIndex is the left side of a triplegroup join, built before the first
// right record and probed by each right as it streams past. Both
// triplegroup joins use it: the shuffled join's reduce task attempt takes
// one from a pool and fills it per reduce group, reset between groups; the
// map-only join task takes one from the same pool and fills it with its
// bucket's lefts, giving it back when the attempt ends.
//
// Every left record is filed under each join value it can take. A left
// already resolved at its join position (a subject, a pinned slot, a pinned
// bound object) is filed once, as it is. A left whose joining slot is still
// nested — a partial triplegroup of μ^β_φm — is filed, unpinned, under each
// slot candidate that falls in the task's bucket: the slot is pinned only
// when a right with that value arrives, so a candidate no right matches is
// never unnested (probe, then pin).
//
// Entries live in one slab, chained per join value in insertion order, and
// heads maps a value to the first and last entry of its chain: the index
// holds no slice per join value, and reset makes all of it reusable.
type joinIndex struct {
	heads   map[rdf.ID]chain
	entries []leftEntry
	cands   []int // SlotCandidates' buffer
	peak    int   // the most join values heads has held
}

// chain is one join value's run of entries: its first and its last.
type chain struct{ first, last int32 }

// leftEntry is one left record filed under one join value.
type leftEntry struct {
	comps []core.AnnTG // the left record; comps[ci] is its joining component
	ci    int
	pair  int   // the slot candidate to pin on a match; -1 once resolved
	next  int32 // the next entry under the same join value; -1 ends the chain
}

func newJoinIndex(n int) *joinIndex {
	return &joinIndex{heads: make(map[rdf.ID]chain, n), entries: make([]leftEntry, 0, n)}
}

// add files comps under v, after every entry already filed under it.
func (x *joinIndex) add(v rdf.ID, comps []core.AnnTG, ci, pair int) {
	i := int32(len(x.entries))
	x.entries = append(x.entries, leftEntry{comps: comps, ci: ci, pair: pair, next: -1})
	c, ok := x.heads[v]
	if ok {
		x.entries[c.last].next = i
		c.last = i
	} else {
		c = chain{i, i}
	}
	x.heads[v] = c
}

// first returns the first entry filed under v, or -1 when none is.
func (x *joinIndex) first(v rdf.ID) int32 {
	if c, ok := x.heads[v]; ok {
		return c.first
	}
	return -1
}

// addLeft files one decoded left record under each join value it can take
// at pos: a resolved record under its one value, a record whose joining slot
// is still nested under each slot candidate phi places in bucket b of m. It
// returns how many candidates it filed that way. comps stays referenced
// until reset.
func (x *joinIndex) addLeft(q *query.Query, pos query.Pos, comps []core.AnnTG,
	phi func(rdf.ID, int) int, m, b int) (int, error) {
	ci, err := compOf(comps, pos.Star)
	if err != nil {
		return 0, err
	}
	st, c := q.Stars[pos.Star], comps[ci]
	if !nestedSlot(c, pos) {
		v, err := core.JoinValue(st, c, pos)
		if err != nil {
			return 0, err
		}
		x.add(v, comps, ci, -1)
		return 0, nil
	}
	if m == 0 {
		return 0, fmt.Errorf("ntgamr: nested slot reached a direct-mode join")
	}
	n := 0
	x.cands = c.SlotCandidates(x.cands[:0], st, pos.Idx)
	for _, k := range x.cands {
		if v := c.Triples[k].O; phi(v, m) == b {
			x.add(v, comps, ci, k)
			n++
		}
	}
	return n, nil
}

// resolve pins entry i's slot to its candidate in s, once: the entry then
// holds its own copy of the record with the pinned component (PinSlot, as a
// full unnest of the bucket would have built it), which every later match
// reuses.
func (x *joinIndex) resolve(i int32, s *core.Scratch, st *query.Star, si int) *leftEntry {
	e := &x.entries[i]
	if e.pair >= 0 {
		comps := s.Concat(e.comps, nil)
		comps[e.ci] = s.PinSlot(st, e.comps[e.ci], si, e.pair)
		e.comps, e.pair = comps, -1
	}
	return e
}

// nestedSlot reports whether a's join position is an unbound slot still
// nested.
func nestedSlot(a core.AnnTG, pos query.Pos) bool {
	return pos.Role == query.RoleSlotObj && a.SlotSel[pos.Idx] == core.Nested
}

var joinIndexPool = sync.Pool{New: func() any { return newJoinIndex(0) }}

func getJoinIndex() *joinIndex { return joinIndexPool.Get().(*joinIndex) }

// reset empties x, keeping its storage.
func (x *joinIndex) reset() {
	x.peak = max(x.peak, len(x.heads))
	clear(x.heads)
	clear(x.entries) // drop the records' references
	x.entries = x.entries[:0]
}

// release resets x and returns it to the pool, unless it has grown past
// chunk.MaxPooled; x must not be used afterwards.
func (x *joinIndex) release() {
	x.reset()
	const entry, head = 48, 16 // bytes per leftEntry, and per heads slot
	if entry*cap(x.entries)+head*x.peak+8*cap(x.cands) > chunk.MaxPooled {
		return
	}
	joinIndexPool.Put(x)
}
