package core

import (
	"slices"
	"sync"

	"ntga/internal/chunk"
)

// Scratch is the working memory of one Map, Reduce or MapRecord call. The
// operators that are its methods build what they return — pair lists,
// selection vectors, component lists — by appending to its slabs, so once a
// slab has grown to a task's largest record a record costs no heap
// allocation. Every result stays valid until Reset, and is cap-clipped, so
// appending to one result never overwrites its neighbour; a full slab is left
// to the results that point into it and a larger one started (room), so
// growth neither copies nor disturbs them.
//
// The zero value is ready to use. A Scratch serves one call at a time: a
// Mapper or StreamReducer is one instance shared by concurrent tasks, so it
// takes a Scratch with GetScratch on entry and Releases it on return, while a
// per-task operator (a TaskMapper, a decoder closure) owns one and Resets it
// per record.
type Scratch struct {
	// Pairs and Buf belong to the caller — a reducer's decoded group, an
	// encode buffer — and only lend their capacity from one call to the next.
	Pairs []PO
	Buf   []byte

	pos    []PO
	ints   []int
	tgs    []AnnTG
	parts  []PartialTG
	joined []AnnTG // Join's buffer, reused from call to call

	// Valid within one operator call.
	idx, bkt    []int
	keep, keep2 []bool
}

// Reset invalidates every result built in s and makes its slabs reusable.
func (s *Scratch) Reset() {
	s.pos, s.ints, s.tgs, s.parts = s.pos[:0], s.ints[:0], s.tgs[:0], s.parts[:0]
}

// room returns slab with space for n more elements: slab itself, or — when it
// is full — a new, larger one, the old being left to the results in it.
func room[T any](slab []T, n int) []T {
	if cap(slab)-len(slab) >= n {
		return slab
	}
	return make([]T, 0, max(2*cap(slab), n))
}

// Concat returns the component list a followed by b, built in s.
func (s *Scratch) Concat(a, b []AnnTG) []AnnTG {
	s.tgs = room(s.tgs, len(a)+len(b))
	start := len(s.tgs)
	s.tgs = append(append(s.tgs, a...), b...)
	return slices.Clip(s.tgs[start:])
}

// Join returns the component list a followed by b in a buffer s reuses from
// call to call: unlike Concat's, the result is valid only until the next
// Join, and a join of any length costs no allocation once the buffer has
// grown to the longest.
func (s *Scratch) Join(a, b []AnnTG) []AnnTG {
	s.joined = append(append(s.joined[:0], a...), b...)
	return s.joined
}

// maxPooledBytes bounds what a pooled Scratch may hold on to — one map-side
// sort-buffer chunk (chunk.Max bytes) — so one oversized group cannot ratchet
// the live heap up for the rest of the process.
const maxPooledBytes = chunk.Max

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns an empty Scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release resets s and returns it to the pool; s and everything built in it
// must not be used afterwards.
func (s *Scratch) Release() {
	const word, tg = 8, 96 // bytes per PO or int, and per AnnTG or PartialTG
	if word*(cap(s.Pairs)+cap(s.pos)+cap(s.ints)+cap(s.idx)+cap(s.bkt))+tg*(cap(s.tgs)+cap(s.parts)+cap(s.joined))+
		cap(s.Buf)+cap(s.keep)+cap(s.keep2) > maxPooledBytes {
		*s = Scratch{}
	}
	clear(s.joined[:cap(s.joined)]) // drop another Scratch's components
	s.Reset()
	scratchPool.Put(s)
}

// bitmap returns n cleared entries, reusing *buf's storage.
func bitmap(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}
