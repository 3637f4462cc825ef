package relmr

import (
	"bytes"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// starScanMapper emits (subject → (P,O) pair) for triples relevant to one
// star — the map side of a relational star-join over vertically-partitioned
// property relations (the VP relations are implicit: the property filter is
// applied during the scan).
type starScanMapper struct {
	q  *query.Query
	st *query.Star
	w  wire
}

func (m *starScanMapper) Map(_ string, record []byte, out mapreduce.Emitter) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if !m.st.Subj.Match(t.S) || !m.st.TripleMatchesStar(t) {
		return nil
	}
	val, err := m.w.encodePair(m.q, core.PO{P: t.P, O: t.O})
	if err != nil {
		return err
	}
	return out.Emit(codec.EncodeID(t.S), val)
}

// decodePairs streams, decodes, and de-duplicates the sorted pair values of
// one reduce group (the engine sorts values, so duplicates are adjacent).
// Only the decoded, de-duplicated pairs are held in memory — the raw value
// slice is never materialized.
func decodePairs(w wire, q *query.Query, values mapreduce.ValueIter) ([]core.PO, error) {
	var pairs []core.PO
	var prev []byte
	for {
		v, ok, err := values.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return pairs, nil
		}
		if prev != nil && bytes.Equal(v, prev) {
			continue
		}
		prev = v
		p, err := w.decodePair(q, v)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}
}

// patternCandidates computes, for every pattern of the star (bound then
// slots), the pairs that can match it. The second result is false if any
// pattern has no candidate (the subject does not match the star).
func patternCandidates(st *query.Star, pairs []core.PO) ([][]core.PO, bool) {
	cands := make([][]core.PO, 0, patternCount(st))
	for i := range st.Bound {
		b := &st.Bound[i]
		var c []core.PO
		for _, p := range pairs {
			if p.P == b.Prop && b.Obj.Match(p.O) {
				c = append(c, p)
			}
		}
		if len(c) == 0 {
			return nil, false
		}
		cands = append(cands, c)
	}
	for i := range st.Slots {
		sl := &st.Slots[i]
		var c []core.PO
		for _, p := range pairs {
			if sl.Prop.Match(p.P) && sl.Obj.Match(p.O) {
				c = append(c, p)
			}
		}
		if len(c) == 0 {
			return nil, false
		}
		cands = append(cands, c)
	}
	return cands, true
}

// crossTuples enumerates the full cross product of candidate pairs — the
// normalized n-tuple expansion whose redundancy the paper measures — and
// hands each tuple to emit.
func crossTuples(st *query.Star, subject rdf.ID, cands [][]core.PO, emit func(Tuple) error) error {
	pick := make([]core.PO, len(cands))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(cands) {
			pairs := make([]core.PO, len(pick))
			copy(pairs, pick)
			return emit(Tuple{fullSegment(st, subject, pairs)})
		}
		for _, p := range cands[i] {
			pick[i] = p
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// starJoinReducer materializes the star-join result for one subject.
type starJoinReducer struct {
	q  *query.Query
	st *query.Star
	w  wire
}

func (r *starJoinReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	subject, err := codec.DecodeID(key)
	if err != nil {
		return err
	}
	pairs, err := decodePairs(r.w, r.q, values)
	if err != nil {
		return err
	}
	cands, ok := patternCandidates(r.st, pairs)
	if !ok {
		return nil
	}
	return crossTuples(r.st, subject, cands, func(t Tuple) error {
		rec, err := r.w.encodeTuple(r.q, t)
		if err != nil {
			return err
		}
		return out.Collect(rec)
	})
}

// starJoinJob builds the MR job computing one star-join from the triple
// relation (or a pre-filtered copy of it, or its bucket files).
func starJoinJob(name string, q *query.Query, st *query.Star, w wire, inputs []string, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:          name,
		Inputs:        inputs,
		Output:        output,
		Mapper:        &starScanMapper{q: q, st: st, w: w},
		StreamReducer: &starJoinReducer{q: q, st: st, w: w},
	}
}

// splitMapper is Pig's SPLIT/compress pass: a map-only filter of the triple
// relation down to query-relevant triples, materialized for the star-join
// jobs to scan instead of the raw input. For unbound-property queries the
// SPLIT also materializes the full triple relation alongside the VP
// relations (the unbound pattern needs all of T), which is why the paper
// observes Pig "processes two copies of the input relation"; we model that
// second copy by emitting relevant records twice.
type splitMapper struct {
	q       *query.Query
	unbound bool
}

func (m *splitMapper) MapRecord(_ string, record []byte, out mapreduce.Collector) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if !m.q.TripleRelevant(t) {
		return nil
	}
	if err := out.Collect(record); err != nil {
		return err
	}
	if m.unbound {
		return out.Collect(record)
	}
	return nil
}

func splitJob(q *query.Query, input, output string) *mapreduce.Job {
	unbound := false
	for _, st := range q.Stars {
		if st.HasUnbound() {
			unbound = true
		}
	}
	return &mapreduce.Job{
		Name:    "pig-split",
		Inputs:  []string{input},
		Output:  output,
		MapOnly: &splitMapper{q: q, unbound: unbound},
	}
}
