// Package ntgamr lifts the NTGA operators of internal/core onto MapReduce
// as the paper's physical operators:
//
//   - Job1 (Algorithm 1): TG_GroupByMap tags every query-relevant triple by
//     subject; TG_GroupByReduce + TG_UnbGrpFilter (Algorithm 2) build the
//     annotated triplegroups for every star subpattern — all stars in a
//     single MR cycle, sharing one scan of the triple relation;
//   - join cycles (Algorithm 3): TG_Join for subject/bound-object joins,
//     TG_UnbJoin (map-side full β-unnest) and TG_OptUnbJoin (map-side
//     partial β-unnest μ^β_φm, completed in the reduce) for joins on an
//     unbound-property pattern's object.
//
// Three evaluation strategies are provided: Eager (β-unnest during Job1),
// LazyFull, LazyPartial, and the paper's final policy LazyAuto (partial
// β-unnest for unbound-object joins, full for partially-bound objects).
package ntgamr

import (
	"bytes"
	"encoding/binary"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Counter names exposed in engine results.
const (
	CounterGroups       = "ntga.job1.groups"         // subject triplegroups formed
	CounterAnnTGs       = "ntga.job1.anntgs"         // AnnTGs passing σ^βγ
	CounterEagerUnnest  = "ntga.job1.eager_unnested" // perfect TGs from eager μ^β
	CounterMapUnnest    = "ntga.join.map_unnested"   // TGs from map-side full μ^β
	CounterPartialTGs   = "ntga.join.partial_tgs"    // partial TGs from μ^β_φm
	CounterReduceUnnest = "ntga.join.reduce_unnested"
)

// groupByMapper is TG_GroupByMap: it keys every query-relevant triple by
// subject. One scan serves every star subpattern (NTGA's scan sharing).
type groupByMapper struct {
	q *query.Query
}

func (m *groupByMapper) Map(_ string, record []byte, out mapreduce.Emitter) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if !m.q.TripleRelevant(t) {
		return nil
	}
	return emitBySubject(t, out)
}

// emitBySubject emits a triple as the grouping cycle's pair: the subject as
// key, (P, O) as value.
func emitBySubject(t rdf.Triple, out mapreduce.Emitter) error {
	s := core.GetScratch()
	defer s.Release()
	b := binary.AppendUvarint(s.Buf[:0], uint64(t.S))
	k := len(b)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(t.P)), uint64(t.O))
	s.Buf = b
	return out.Emit(b[:k], b[k:])
}

// groupFilterReducer is TG_GroupByReduce + TG_UnbGrpFilter: it assembles
// the subject triplegroup, applies the β group-filter for every equivalence
// class, and — under the Eager strategy — β-unnests immediately.
type groupFilterReducer struct {
	q        *query.Query
	eager    bool
	counters *mapreduce.Counters
}

func (r *groupFilterReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	s := core.GetScratch()
	defer s.Release()
	tg, err := readGroup(s, key, values)
	if err != nil {
		return err
	}
	r.counters.Inc(CounterGroups, 1)
	return filterGroup(s, r.q, tg, r.eager, r.counters,
		func(_ []core.AnnTG, rec []byte) error { return out.Collect(rec) })
}

// readGroup assembles a grouping reduce call's subject triplegroup in s.Pairs.
// Because the engine delivers values in sorted order, duplicates are adjacent
// and only the decoded pairs — not the raw value slices — are ever held.
func readGroup(s *core.Scratch, key []byte, values mapreduce.ValueIter) (core.TripleGroup, error) {
	subject, err := codec.DecodeID(key)
	if err != nil {
		return core.TripleGroup{}, err
	}
	s.Pairs = s.Pairs[:0]
	var prev []byte
	for {
		v, ok, err := values.Next()
		if err != nil {
			return core.TripleGroup{}, err
		}
		if !ok {
			return core.NewTripleGroup(subject, s.Pairs), nil
		}
		if prev != nil && bytes.Equal(v, prev) {
			continue
		}
		prev = v
		rd := codec.NewReader(v)
		p, err := rd.ID()
		if err != nil {
			return core.TripleGroup{}, err
		}
		o, err := rd.ID()
		if err != nil {
			return core.TripleGroup{}, err
		}
		s.Pairs = append(s.Pairs, core.PO{P: p, O: o})
	}
}

// filterGroup applies one query's TG_UnbGrpFilter to a subject triplegroup
// and — under the Eager strategy — β-unnests immediately, handing emit each
// resulting AnnTG as a singleton component list with its record. Both are
// s's and last until emit returns.
func filterGroup(s *core.Scratch, q *query.Query, tg core.TripleGroup, eager bool,
	counters *mapreduce.Counters, emit func(comps []core.AnnTG, rec []byte) error) error {
	emitEach := func(anns []core.AnnTG, counter string) error {
		for i := range anns {
			counters.Inc(counter, 1)
			s.Buf = core.AppendJoined(s.Buf[:0], anns[i:i+1])
			if err := emit(anns[i:i+1], s.Buf); err != nil {
				return err
			}
		}
		return nil
	}
	anns := s.UnbGrpFilter(tg, q.Stars)
	if !eager {
		return emitEach(anns, CounterAnnTGs)
	}
	for _, a := range anns {
		counters.Inc(CounterAnnTGs, 1)
		if err := emitEach(s.BetaUnnest(q.Stars[a.EC], a), CounterEagerUnnest); err != nil {
			return err
		}
	}
	return nil
}

// job1 builds the grouping cycle.
func job1(q *query.Query, eager bool, counters *mapreduce.Counters, input, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:          "ntga-group",
		Inputs:        []string{input},
		Output:        output,
		Mapper:        &groupByMapper{q: q},
		StreamReducer: &groupFilterReducer{q: q, eager: eager, counters: counters},
	}
}
