package relmr

import (
	"bytes"
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// SelSJFirst is the Figure 3 "Sel-SJ-first" baseline: it evaluates the most
// selective join first while preserving star structure where possible, at
// the cost of re-scanning the triple relation in later cycles:
//
//   - object-subject 2-star queries run in 2 cycles (star-join of the
//     object-side star, then a combined star-join+join cycle for the
//     subject-side star), both scanning the triple relation;
//   - object-object 2-star queries run in 3 cycles (the selective O-O edge
//     join first, then one completion cycle per star), all three scanning
//     the triple relation.
//
// It supports exactly the case study's shape: two bound-only stars joined
// on one variable.
type SelSJFirst struct {
	w    wire
	name string
}

// NewSelSJFirst returns the Sel-SJ-first engine (binary wire format).
func NewSelSJFirst() *SelSJFirst { return &SelSJFirst{name: "Sel-SJ-first"} }

// Name implements engine.QueryEngine.
func (s *SelSJFirst) Name() string { return s.name }

// PlanSource implements engine.QueryEngine; see the type comment for the
// shapes produced. The engine has no map-only form, so src.Part is ignored;
// the counters argument is unused.
func (s *SelSJFirst) PlanSource(q *query.Query, src plan.Source, cl *engine.Cleaner,
	_ *mapreduce.Counters) (*plan.Physical, error) {
	input := src.Base
	if len(q.Stars) != 2 || len(q.Joins) != 1 {
		return nil, fmt.Errorf("relmr: Sel-SJ-first supports exactly two stars, got %d stars / %d joins",
			len(q.Stars), len(q.Joins))
	}
	for _, st := range q.Stars {
		if st.HasUnbound() {
			return nil, fmt.Errorf("relmr: Sel-SJ-first supports bound-only stars (Figure 3 case study)")
		}
	}
	j := q.Joins[0]
	switch {
	case j.Left.Role == query.RoleBoundObj && j.Right.Role == query.RoleSubject:
		return s.planOS(q, j, input, cl)
	case j.Left.Role == query.RoleSubject && j.Right.Role == query.RoleBoundObj:
		// Normalize: object side drives cycle 1.
		j.Left, j.Right = j.Right, j.Left
		return s.planOS(q, j, input, cl)
	case j.Left.Role == query.RoleBoundObj && j.Right.Role == query.RoleBoundObj:
		return s.planOO(q, j, input, cl)
	default:
		return nil, fmt.Errorf("relmr: Sel-SJ-first cannot plan join %v", j)
	}
}

// planOS: cycle 1 star-joins the object-side star; cycle 2 scans the triple
// relation again and computes the subject-side star AND the inter-star join
// in one grouping (both keyed on the subject-side star's subject).
func (s *SelSJFirst) planOS(q *query.Query, j query.Join, input string, cl *engine.Cleaner) (*plan.Physical, error) {
	objStar := q.Stars[j.Left.Star]
	subjStar := q.Stars[j.Right.Star]
	f1 := cl.Track(engine.TempName("selsj", "star"))
	out := cl.Track(engine.TempName("selsj", "final"))
	jc := j
	return &plan.Physical{
		Engine: s.name, Input: input, Final: out,
		Stages: []plan.Stage{
			{{Kind: plan.KindStarJoin, Name: "selsj-star", Star: objStar.Index,
				Inputs: []string{input}, Output: f1,
				Job: starJoinJob("selsj-star", q, objStar, s.w, input, f1)}},
			{{Kind: plan.KindCompletion, Name: "selsj-complete", Star: subjStar.Index,
				Inputs: []string{input, f1}, Output: out, Join: &jc,
				Job: completionJob(q, "selsj-complete", subjStar, s.w, input, f1, j.Left, out)}},
		},
	}, nil
}

// planOO: cycle 1 joins the two edge patterns carrying the join variable
// (the most selective join); cycles 2 and 3 fold in the remaining patterns
// of each star, re-scanning the triple relation each time.
func (s *SelSJFirst) planOO(q *query.Query, j query.Join, input string, cl *engine.Cleaner) (*plan.Physical, error) {
	a, b := q.Stars[j.Left.Star], q.Stars[j.Right.Star]
	f1 := cl.Track(engine.TempName("selsj", "edge"))
	f2 := cl.Track(engine.TempName("selsj", "compA"))
	out := cl.Track(engine.TempName("selsj", "final"))
	jc := j
	return &plan.Physical{
		Engine: s.name, Input: input, Final: out,
		Stages: []plan.Stage{
			{{Kind: plan.KindEdgeJoin, Name: "selsj-edge", Star: -1,
				Inputs: []string{input}, Output: f1, Join: &jc,
				Job: edgeJoinJob(q, "selsj-edge", j, s.w, input, f1)}},
			{{Kind: plan.KindCompletion, Name: "selsj-completeA", Star: a.Index,
				Inputs: []string{input, f1}, Output: f2,
				Job: completionJob(q, "selsj-completeA", a, s.w, input, f1, query.Pos{}, f2)}},
			{{Kind: plan.KindCompletion, Name: "selsj-completeB", Star: b.Index,
				Inputs: []string{input, f2}, Output: out,
				Job: completionJob(q, "selsj-completeB", b, s.w, input, f2, query.Pos{}, out)}},
		},
	}, nil
}

// Decoder implements engine.QueryEngine.
func (s *SelSJFirst) Decoder(q *query.Query, count *int64) engine.DecodeFunc {
	return decoder(q, s.w, count)
}

// Plan is harness-facing (benchmark/adapter.go); use engine.Plan.
func (s *SelSJFirst) Plan(q *query.Query, input string, cl *engine.Cleaner,
	counters *mapreduce.Counters) (*plan.Physical, error) {
	return engine.Plan(s, q, plan.Source{Base: input}, cl, counters)
}

// Run is harness-facing (benchmark/adapter.go); use engine.Run.
func (s *SelSJFirst) Run(mr *mapreduce.Engine, q *query.Query, input string) (*engine.Result, error) {
	return engine.Run(s, mr, q, plan.Source{Base: input})
}

// ---- edge join (cycle 1 of the O-O plan) ----

type edgeJoinMapper struct {
	q    *query.Query
	join query.Join
	w    wire
}

func (m *edgeJoinMapper) Map(_ string, record []byte, out mapreduce.Emitter) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	emitSide := func(tag byte, pos query.Pos) error {
		st := m.q.Stars[pos.Star]
		b := st.Bound[pos.Idx]
		if t.P != b.Prop || !b.Obj.Match(t.O) || !st.Subj.Match(t.S) {
			return nil
		}
		seg := Segment{Star: st.Index, Subject: t.S,
			PatIdxs: []int{pos.Idx}, Pairs: []core.PO{{P: t.P, O: t.O}}}
		rec, err := m.w.encodeTuple(m.q, Tuple{seg})
		if err != nil {
			return err
		}
		val := append([]byte{tag}, rec...)
		return out.Emit(codec.EncodeID(t.O), val)
	}
	if err := emitSide(tagLeft, m.join.Left); err != nil {
		return err
	}
	return emitSide(tagRight, m.join.Right)
}

func edgeJoinJob(q *query.Query, name string, j query.Join, w wire, input, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:          name,
		Inputs:        []string{input},
		Output:        output,
		Mapper:        &edgeJoinMapper{q: q, join: j, w: w},
		StreamReducer: joinReducer{q: q, w: w},
	}
}

// ---- star completion (cycles 2+ of both plans) ----

const (
	tagPair  byte = 0
	tagTuple byte = 1
)

// completionMapper routes triple-relation records (star-relevant pairs,
// keyed by subject) and partial tuples (keyed by the subject their
// st-segment must have) into one grouping.
type completionMapper struct {
	q         *query.Query
	st        *query.Star
	w         wire
	tupleIn   string
	absentPos query.Pos // key position when the tuple has no st-segment yet
}

func (m *completionMapper) Map(input string, record []byte, out mapreduce.Emitter) error {
	if input == m.tupleIn {
		t, err := m.w.decodeTuple(m.q, record)
		if err != nil {
			return err
		}
		key, err := m.tupleKey(t)
		if err != nil {
			return err
		}
		val := append([]byte{tagTuple}, record...)
		return out.Emit(codec.EncodeID(key), val)
	}
	// Any other input is the triple relation: the base file, or one of the
	// delta blocks the ingest overlay widened the scan with — deltas use the
	// same record codec, so they route through the identical star filter.
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if !m.st.Subj.Match(t.S) || !m.st.TripleMatchesStar(t) {
		return nil
	}
	pv, err := m.w.encodePair(m.q, core.PO{P: t.P, O: t.O})
	if err != nil {
		return err
	}
	val := append([]byte{tagPair}, pv...)
	return out.Emit(codec.EncodeID(t.S), val)
}

func (m *completionMapper) tupleKey(t Tuple) (rdf.ID, error) {
	for _, seg := range t {
		if seg.Star == m.st.Index {
			return seg.Subject, nil
		}
	}
	return t.joinValue(m.q, m.absentPos)
}

// completionReducer extends each tuple's st-segment (or creates it) with
// the cross product of candidates for the star's missing patterns.
type completionReducer struct {
	q  *query.Query
	st *query.Star
	w  wire
}

// Reduce streams the group: the sorted value order delivers every pair
// (tag 0) before the first tuple (tag 1), so the pairs are accumulated and
// de-duplicated incrementally, the candidate sets are fixed when the first
// tuple arrives, and each tuple is then extended and emitted without ever
// buffering the tuple side.
func (r *completionReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	subject, err := codec.DecodeID(key)
	if err != nil {
		return err
	}
	if !r.st.Subj.Match(subject) {
		return nil
	}
	var pairs []core.PO
	var prevPair []byte
	var allCands [][]core.PO
	candsReady := false
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if len(v) == 0 {
			return fmt.Errorf("relmr: empty completion value")
		}
		switch v[0] {
		case tagPair:
			pv := v[1:]
			if prevPair != nil && bytes.Equal(pv, prevPair) {
				continue
			}
			prevPair = pv
			p, err := r.w.decodePair(r.q, pv)
			if err != nil {
				return err
			}
			pairs = append(pairs, p)
		case tagTuple:
			if !candsReady {
				var ok bool
				allCands, ok = patternCandidates(r.st, pairs)
				if !ok {
					return nil
				}
				candsReady = true
			}
			t, err := r.w.decodeTuple(r.q, v[1:])
			if err != nil {
				return err
			}
			if err := r.completeTuple(subject, t, allCands, out); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relmr: unknown completion tag %d", v[0])
		}
	}
}

// completeTuple extends one partial tuple's st-segment (or creates it) with
// the cross product of candidates for the star's missing patterns.
func (r *completionReducer) completeTuple(subject rdf.ID, t Tuple, allCands [][]core.PO,
	out mapreduce.Collector) error {
	segIdx := -1
	for i, seg := range t {
		if seg.Star == r.st.Index {
			segIdx = i
		}
	}
	present := make(map[int]core.PO)
	if segIdx >= 0 {
		for i, pi := range t[segIdx].PatIdxs {
			present[pi] = t[segIdx].Pairs[i]
		}
	}
	// Cross product over the star's patterns: present patterns keep
	// their pinned pair, missing ones branch over candidates.
	cands := make([][]core.PO, patternCount(r.st))
	for pi := range cands {
		if pair, ok := present[pi]; ok {
			cands[pi] = []core.PO{pair}
		} else {
			cands[pi] = allCands[pi]
		}
	}
	return crossTuples(r.st, subject, cands, func(full Tuple) error {
		joined := make(Tuple, 0, len(t)+1)
		for i, seg := range t {
			if i == segIdx {
				continue
			}
			joined = append(joined, seg)
		}
		joined = append(joined, full[0])
		rec, err := r.w.encodeTuple(r.q, joined)
		if err != nil {
			return err
		}
		return out.Collect(rec)
	})
}

// completionJob builds a combined star-join + join cycle: it scans the
// triple relation for the star's patterns and folds the partial tuples in.
func completionJob(q *query.Query, name string, st *query.Star, w wire, tripleIn, tupleIn string,
	absentPos query.Pos, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:   name,
		Inputs: []string{tripleIn, tupleIn},
		Output: output,
		Mapper: &completionMapper{q: q, st: st, w: w, tupleIn: tupleIn,
			absentPos: absentPos},
		StreamReducer: &completionReducer{q: q, st: st, w: w},
	}
}
