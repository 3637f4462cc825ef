package relmr

import (
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// starJoinTask is the map-only star-join over one subject-hash bucket of the
// partitioned triple layout. Bucket files are subject-contiguous with each
// subject's (P,O) pairs in sorted order, so the task streams: it accumulates
// a subject's relevant pairs (skipping adjacent duplicates, which is a full
// dedup under the sorted layout) and materializes the star's cross product
// when the subject run ends — exactly what starJoinReducer does after a
// shuffle, without the shuffle.
type starJoinTask struct {
	q  *query.Query
	st *query.Star
	w  wire

	started  bool
	subject  rdf.ID
	pairs    []core.PO
	haveLast bool
	last     core.PO
}

func (m *starJoinTask) MapRecord(_ string, record []byte, out mapreduce.Collector) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if m.started && t.S != m.subject {
		if err := m.flushSubject(out); err != nil {
			return err
		}
	}
	if !m.started || t.S != m.subject {
		m.started, m.subject = true, t.S
		m.pairs, m.haveLast = m.pairs[:0], false
	}
	if !m.st.Subj.Match(t.S) || !m.st.TripleMatchesStar(t) {
		return nil
	}
	p := core.PO{P: t.P, O: t.O}
	if m.haveLast && p == m.last {
		return nil
	}
	m.haveLast, m.last = true, p
	m.pairs = append(m.pairs, p)
	return nil
}

func (m *starJoinTask) Flush(out mapreduce.Collector) error {
	if !m.started {
		return nil
	}
	return m.flushSubject(out)
}

func (m *starJoinTask) flushSubject(out mapreduce.Collector) error {
	if len(m.pairs) == 0 {
		return nil
	}
	cands, ok := patternCandidates(m.st, m.pairs)
	if !ok {
		return nil
	}
	return crossTuples(m.st, m.subject, cands, func(t Tuple) error {
		rec, err := m.w.encodeTuple(m.q, t)
		if err != nil {
			return err
		}
		return out.Collect(rec)
	})
}

// starJoinTaskFactory builds one starJoinTask per bucket; retried attempts
// get fresh streaming state.
type starJoinTaskFactory struct {
	q  *query.Query
	st *query.Star
	w  wire
}

func (f *starJoinTaskFactory) NewTask(int, [][]byte) (mapreduce.TaskMapper, error) {
	return &starJoinTask{q: f.q, st: f.st, w: f.w}, nil
}

// starJoinMapOnlyJob builds the no-shuffle star-join job over the bucket
// files of a subject-partitioned layout.
func starJoinMapOnlyJob(name string, q *query.Query, st *query.Star, w wire,
	part *plan.Partitioning, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:            name,
		Inputs:          part.Files(),
		Output:          output,
		WholeFileSplits: true,
		MapOnlyFactory:  &starJoinTaskFactory{q: q, st: st, w: w},
	}
}

// relJoinPartMiss explains why a relational join cycle cannot use the
// layout: its key is a variable binding of materialized tuples, not the
// subject hash the bucket files are laid out on.
func relJoinPartMiss(j query.Join) string {
	return fmt.Sprintf("join ?%s keys on a tuple binding, not the layout's subject hash", j.Var)
}
