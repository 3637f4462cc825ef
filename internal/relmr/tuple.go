// Package relmr implements the relational-style MapReduce query engines the
// paper compares against: Pig-style and Hive-style one-star-join-per-cycle
// plans, plus the two alternative join groupings of the Figure 3 case study
// (SJ-per-cycle and Sel-SJ-first).
//
// These engines evaluate star subpatterns as relational joins whose results
// are fully expanded n-tuples — one (property, object) column pair per
// triple pattern. An unbound-property pattern therefore multiplies the
// bound component into every combination, which is exactly the redundancy
// the NTGA engines avoid; reproducing that footprint (and the disk-full
// failures it causes) is the point of this package.
package relmr

import (
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Segment is the portion of a relational tuple contributed by one star:
// the subject plus one (P, O) pair per included pattern. Pattern indices
// cover the star's patterns in bound-then-slot order: index i < len(Bound)
// is bound pattern i; index len(Bound)+j is unbound slot j.
//
// Final star-join outputs carry all patterns; the Sel-SJ-first planner also
// ships partial segments (a single join edge) between cycles.
type Segment struct {
	Star    int
	Subject rdf.ID
	PatIdxs []int
	Pairs   []core.PO
}

// Tuple is a relational (joined) tuple: one segment per star folded in so
// far.
type Tuple []Segment

// patternCount returns the number of patterns in a star.
func patternCount(st *query.Star) int { return len(st.Bound) + len(st.Slots) }

// fullSegment builds a segment covering every pattern of the star.
func fullSegment(st *query.Star, subject rdf.ID, pairs []core.PO) Segment {
	idxs := make([]int, len(pairs))
	for i := range idxs {
		idxs[i] = i
	}
	return Segment{Star: st.Index, Subject: subject, PatIdxs: idxs, Pairs: pairs}
}

// pairFor returns the (P, O) pair a segment holds for a pattern index.
func (s Segment) pairFor(patIdx int) (core.PO, bool) {
	for i, pi := range s.PatIdxs {
		if pi == patIdx {
			return s.Pairs[i], true
		}
	}
	return core.PO{}, false
}

// joinValue extracts the ID a tuple contributes at a join position.
func (t Tuple) joinValue(q *query.Query, pos query.Pos) (rdf.ID, error) {
	for _, seg := range t {
		if seg.Star != pos.Star {
			continue
		}
		if pos.Role == query.RoleSubject {
			return seg.Subject, nil
		}
		patIdx := pos.Idx
		if pos.Role == query.RoleSlotObj {
			patIdx += len(q.Stars[pos.Star].Bound)
		}
		pair, ok := seg.pairFor(patIdx)
		if !ok {
			return rdf.NoID, fmt.Errorf("relmr: tuple segment for star %d lacks pattern %d", pos.Star, patIdx)
		}
		return pair.O, nil
	}
	return rdf.NoID, fmt.Errorf("relmr: tuple has no segment for star %d", pos.Star)
}

// EncodeTuple serializes a tuple.
func EncodeTuple(t Tuple) []byte {
	var e codec.Buffer
	e.PutUvarint(uint64(len(t)))
	for _, seg := range t {
		e.PutUvarint(uint64(seg.Star))
		e.PutID(seg.Subject)
		e.PutUvarint(uint64(len(seg.PatIdxs)))
		for i, pi := range seg.PatIdxs {
			e.PutUvarint(uint64(pi))
			e.PutID(seg.Pairs[i].P)
			e.PutID(seg.Pairs[i].O)
		}
	}
	return e.Bytes()
}

// DecodeTuple parses a tuple record.
func DecodeTuple(p []byte) (Tuple, error) {
	r := codec.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())+1 {
		return nil, codec.ErrCorrupt
	}
	t := make(Tuple, n)
	for i := range t {
		star, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		subj, err := r.ID()
		if err != nil {
			return nil, err
		}
		np, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if np > uint64(r.Remaining())+1 {
			return nil, codec.ErrCorrupt
		}
		seg := Segment{Star: int(star), Subject: subj,
			PatIdxs: make([]int, np), Pairs: make([]core.PO, np)}
		for j := 0; j < int(np); j++ {
			pi, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			seg.PatIdxs[j] = int(pi)
			if seg.Pairs[j].P, err = r.ID(); err != nil {
				return nil, err
			}
			if seg.Pairs[j].O, err = r.ID(); err != nil {
				return nil, err
			}
		}
		t[i] = seg
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, r.Remaining())
	}
	return t, nil
}

// appendTupleRow appends the binding row of a fully-expanded tuple to dst,
// len(q.AllVars) IDs wide.
func appendTupleRow(dst []rdf.ID, q *query.Query, t Tuple) []rdf.ID {
	start := len(dst)
	dst = append(dst, make([]rdf.ID, len(q.AllVars))...)
	row := dst[start:]
	for _, seg := range t {
		st := q.Stars[seg.Star]
		if st.SubjCol >= 0 {
			row[st.SubjCol] = seg.Subject
		}
		for i, pi := range seg.PatIdxs {
			pair := seg.Pairs[i]
			if pi < len(st.Bound) {
				if c := st.Bound[pi].OCol; c >= 0 {
					row[c] = pair.O
				}
			} else {
				sl := &st.Slots[pi-len(st.Bound)]
				row[sl.PCol] = pair.P
				if sl.OCol >= 0 {
					row[sl.OCol] = pair.O
				}
			}
		}
	}
	return dst
}
