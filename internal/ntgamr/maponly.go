package ntgamr

import (
	"fmt"
	"sync"

	"ntga/internal/core"
	"ntga/internal/core/hash64"
	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// This file is the no-shuffle execution path over a subject-partitioned
// layout (plan.Partitioning / hdfs.Layout): the grouping cycle and every
// join whose chain prefix keeps binding through star subjects run over
// bucket-aligned whole-file tasks, so nothing crosses a shuffle. The flat
// path's byte-level semantics are reproduced exactly:
//
//   - bucket files are written by the loader's shuffle sorted by
//     (PutID(S), PutID(P)+PutID(O)) — the grouping cycle's own key/value
//     encoding — so the grouping cycle is job1 itself with WholeFileSplits
//     set: each task hands its bucket's subject runs, already in the flat
//     reducer's sorted-value order, straight to groupFilterReducer, which
//     writes each AnnTG a map-only join reads once, to its subject's grouped
//     bucket file (a shuffled join's right star goes to the main output);
//   - join i's left side is routed by the producing job to the bucket of
//     its join value, so join i's map-only task b joins lefts and rights
//     that both hash to b.
//
// The routed bucket files are this path's exchange, so a left whose joining
// slot is still nested crosses it as the paper's partial β-unnest μ^β_φm
// (TG_OptUnbJoin) with φ = hash64.Bucket and φm = the layout's bucket count:
// one record per bucket its candidates hash to, the rest of the group
// written once per bucket instead of once per candidate. The join task
// files such a left in its joinIndex (index.go, the shuffled TG_OptUnbJoin
// reducer's index too) under each of its candidates in the task's bucket
// and pins the slot only when a right subject matches — Lazy's deferral
// carried into the join. A left already resolved at its join position (a
// subject, a pinned slot, a bound object pinned per candidate) is routed as
// one record per join value.

// MapOnlyPrefix returns how many leading joins of the chain the partitioned
// layout can serve map-side: the unbroken prefix whose joins all bind the
// right star through its subject (the bucket key). The first shuffled join
// breaks bucket alignment for everything after it.
func MapOnlyPrefix(part *plan.Partitioning, joins []query.Join) int {
	n := 0
	for i := range joins {
		if !plan.PartitionServes(part, joins, i) {
			break
		}
		n++
	}
	return n
}

// partMissReason explains, for EXPLAIN, why the map-only rewrite stopped at
// this join.
func partMissReason(j query.Join) string {
	return fmt.Sprintf("join ?%s binds star %d through its %s, not its subject",
		j.Var, j.Right.Star, j.Right.Role)
}

// layoutBucket is the layout's placement function over dictionary IDs.
func layoutBucket(v rdf.ID, n int) int { return hash64.Bucket(uint64(v), n) }

// jlRoute routes the left side of one upcoming map-only join to the bucket
// files of its join values.
type jlRoute struct {
	pos   query.Pos // the join's left position
	files []string  // bucket files, indexed by layoutBucket(join value)
}

func (r *jlRoute) emit(s *core.Scratch, q *query.Query, comps []core.AnnTG, nc mapreduce.NamedCollector) error {
	route := func(b int, comps []core.AnnTG) error {
		s.Buf = core.AppendJoined(s.Buf[:0], comps)
		return nc.CollectTo(r.files[b], s.Buf)
	}
	if r.pos.Role == query.RoleSlotObj {
		ci, err := compOf(comps, r.pos.Star)
		if err != nil {
			return err
		}
		if comp := comps[ci]; comp.SlotSel[r.pos.Idx] == core.Nested {
			for _, pt := range s.PartialBetaUnnestBy(q.Stars[r.pos.Star], comp, r.pos.Idx, len(r.files), layoutBucket) {
				nc.Inc(CounterPartialTGs, 1)
				comps[ci] = pt.TG
				if err := route(pt.Bucket, comps); err != nil {
					return err
				}
			}
			comps[ci] = comp
			return nil
		}
	}
	return resolveJoinSide(s, q, comps, r.pos, nc, func(v rdf.ID, comps []core.AnnTG) error {
		return route(layoutBucket(v, len(r.files)), comps)
	})
}

// joinTask is the map-only join operator for one bucket: the side input
// holds every left record routed to this bucket, filed in a joinIndex, and
// the task streams the grouped bucket joining right-side records (whose
// subject is the join value — map-only joins always bind the right star
// through its subject, so right subjects co-hash with their lefts). The task,
// its index and both Scratches come from their pools and go back on Done
// (mapreduce.TaskMapper).
type joinTask struct {
	q     *query.Query
	join  query.Join
	lefts *joinIndex
	ls    *core.Scratch // the decoded lefts, for the whole task
	sc    *core.Scratch // one right record's working memory
	next  *jlRoute      // the following map-only join's left routing (nil when last)
}

var joinTaskPool = sync.Pool{New: func() any { return new(joinTask) }}

// Done implements mapreduce.TaskMapper: the task, its index and its
// Scratches go back to their pools.
func (j *joinTask) Done() {
	j.lefts.release()
	j.ls.Release()
	j.sc.Release()
	*j = joinTask{}
	joinTaskPool.Put(j)
}

func (j *joinTask) MapRecord(_ string, record []byte, out mapreduce.Collector) error {
	j.sc.Reset()
	comps, err := j.sc.DecodeJoined(record)
	if err != nil {
		return err
	}
	if len(comps) != 1 || comps[0].EC != j.join.Right.Star {
		return nil // another star's group — a different join consumes it
	}
	pos := j.join.Left
	for i := j.lefts.first(comps[0].Subject); i >= 0; i = j.lefts.entries[i].next {
		l := &j.lefts.entries[i]
		joined := j.sc.Join(l.comps, comps)
		if l.pair >= 0 {
			out.Inc(CounterMapUnnest, 1)
			joined[l.ci] = j.sc.PinSlot(j.q.Stars[pos.Star], joined[l.ci], pos.Idx, l.pair)
		}
		if j.next == nil {
			// The last join of the prefix: its main output is what the next
			// (shuffled) join, or the caller, reads.
			if err := collectJoined(out, joined, &j.sc.Buf); err != nil {
				return err
			}
			continue
		}
		// A map-only successor reads its lefts from the routed bucket files
		// alone, so the main output would be written and never read.
		nc, ok := out.(mapreduce.NamedCollector)
		if !ok {
			return fmt.Errorf("ntgamr: collector lacks MultipleOutputs support")
		}
		if err := j.next.emit(j.sc, j.q, joined, nc); err != nil {
			return err
		}
	}
	return nil
}

// joinTaskFactory builds the join operator per bucket task from its side
// input (the left records routed to the bucket).
type joinTaskFactory struct {
	q       *query.Query
	join    query.Join
	buckets int
	next    *jlRoute
}

// NewTask files the bucket's routed lefts in the task's joinIndex. A
// partially routed left is filed, not unnested, under each slot candidate
// that falls in this bucket — the others are the same left's records in
// other buckets.
func (f *joinTaskFactory) NewTask(task int, side [][]byte) (mapreduce.MapOnlyMapper, error) {
	j := joinTaskPool.Get().(*joinTask)
	*j = joinTask{q: f.q, join: f.join, lefts: getJoinIndex(), ls: core.GetScratch(), sc: core.GetScratch(), next: f.next}
	for _, rec := range side {
		comps, err := j.ls.DecodeJoined(rec)
		if err == nil {
			_, err = j.lefts.addLeft(f.q, f.join.Left, comps, layoutBucket, f.buckets, task)
		}
		if err != nil {
			j.Done()
			return nil, err
		}
	}
	return j, nil
}

// tempBuckets names (and tracks for cleanup) one intermediate bucket set.
func tempBuckets(cl *engine.Cleaner, base string, n int) []string {
	files := make([]string, n)
	for i := range files {
		files[i] = cl.Track(fmt.Sprintf("%s/bucket-%05d", base, i))
	}
	return files
}

func jlFilesOf(r *jlRoute) []string {
	if r == nil {
		return nil
	}
	return r.files
}
