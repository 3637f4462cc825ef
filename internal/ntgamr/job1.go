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
	"encoding/binary"
	"fmt"
	"math"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/core/hash64"
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
	return emitTriple(record, out)
}

// emitTriple emits a decoded triple record as the grouping cycle's pair. The
// record is PutID(S) PutID(P) PutID(O), so its own bytes split after the
// subject varint are the key (the subject) and the value ((P, O)).
func emitTriple(record []byte, out mapreduce.Emitter) error {
	_, k := binary.Uvarint(record)
	return out.Emit(record[:k], record[k:])
}

// groupFilterReducer is TG_GroupByReduce + TG_UnbGrpFilter: it assembles
// the subject triplegroup, applies the β group-filter for every equivalence
// class, and — under the Eager strategy — β-unnests immediately.
//
// Over a subject-partitioned layout the grouping cycle also routes each AnnTG
// to its subject's grouped bucket (grpFiles, indexed by hash64.Bucket of the
// subject) and the first map-only join's left side through jl; both are nil
// when unused.
type groupFilterReducer struct {
	q        *query.Query
	eager    bool
	grpFiles []string
	jl       *jlRoute
}

func (r *groupFilterReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	s := core.GetScratch()
	defer s.Release()
	tg, err := readGroup(s, key, values)
	if err != nil {
		return err
	}
	out.Inc(CounterGroups, 1)
	return filterGroup(s, r.q, tg, r.eager, out, func(comps []core.AnnTG, rec []byte) error {
		if err := out.Collect(rec); err != nil {
			return err
		}
		if r.grpFiles == nil && r.jl == nil {
			return nil
		}
		nc, ok := out.(mapreduce.NamedCollector)
		if !ok {
			return fmt.Errorf("ntgamr: collector lacks MultipleOutputs support")
		}
		if r.grpFiles != nil {
			b := hash64.Bucket(uint64(tg.Subject), len(r.grpFiles))
			if err := nc.CollectTo(r.grpFiles[b], rec); err != nil {
				return err
			}
		}
		if r.jl != nil && comps[0].EC == r.jl.pos.Star {
			return r.jl.emit(s, r.q, comps, nc)
		}
		return nil
	})
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
	for {
		v, ok, err := values.Next()
		if err != nil {
			return core.TripleGroup{}, err
		}
		if !ok {
			return core.NewTripleGroup(subject, s.Pairs), nil
		}
		p, n := binary.Uvarint(v)
		o, m := binary.Uvarint(v[max(n, 0):])
		if n <= 0 || m <= 0 || n+m != len(v) || p > math.MaxUint32 || o > math.MaxUint32 {
			return core.TripleGroup{}, fmt.Errorf("%w: grouping value %x", codec.ErrCorrupt, v)
		}
		po := core.PO{P: rdf.ID(p), O: rdf.ID(o)}
		if k := len(s.Pairs); k > 0 && s.Pairs[k-1] == po {
			continue
		}
		s.Pairs = append(s.Pairs, po)
	}
}

// filterGroup applies one query's TG_UnbGrpFilter to a subject triplegroup
// and — under the Eager strategy — β-unnests immediately, handing emit each
// resulting AnnTG as a singleton component list with its record. Both are
// s's and last until emit returns. The AnnTGs are counted on cnt.
func filterGroup(s *core.Scratch, q *query.Query, tg core.TripleGroup, eager bool,
	cnt mapreduce.Counter, emit func(comps []core.AnnTG, rec []byte) error) error {
	emitEach := func(anns []core.AnnTG, counter string) error {
		for i := range anns {
			cnt.Inc(counter, 1)
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
		cnt.Inc(CounterAnnTGs, 1)
		if err := emitEach(s.BetaUnnest(q.Stars[a.EC], a), CounterEagerUnnest); err != nil {
			return err
		}
	}
	return nil
}

// job1 builds the grouping cycle over inputs with reducer r.
func job1(q *query.Query, r *groupFilterReducer, inputs []string, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:          "ntga-group",
		Inputs:        inputs,
		Output:        output,
		Mapper:        &groupByMapper{q: q},
		StreamReducer: r,
	}
}
