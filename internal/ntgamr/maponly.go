package ntgamr

import (
	"encoding/binary"
	"fmt"

	"ntga/internal/codec"
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
//     reducer's sorted-value order, straight to groupFilterReducer;
//   - join i's left side is resolved (pinned / fully β-unnested) by the
//     producing job and routed to the bucket of its join value, so join i's
//     map-only task b joins lefts and rights that both hash to b.
//
// Partial β-unnest (μ^β_φm) never appears on this path: it exists to shrink
// shuffled bytes, and here there are none — a nested joining slot is fully
// unnested instead, which yields the same rows.

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

// decodeResolved reads one routed left-side record — the concrete join value
// followed by the joined-components encoding (jlRoute.emit's framing) — into s.
func decodeResolved(s *core.Scratch, rec []byte) (rdf.ID, []core.AnnTG, error) {
	rd := codec.NewReader(rec)
	v, err := rd.ID()
	if err != nil {
		return 0, nil, err
	}
	comps, err := s.DecodeJoined(rec[len(rec)-rd.Remaining():])
	return v, comps, err
}

// jlRoute routes resolved left-side records of one upcoming map-only join to
// its bucket files.
type jlRoute struct {
	pos   query.Pos // the join's left position
	files []string  // bucket files, indexed by hash64.Bucket(join value)
}

func (r *jlRoute) emit(s *core.Scratch, q *query.Query, comps []core.AnnTG, nc mapreduce.NamedCollector) error {
	return resolveJoinSide(s, q, comps, r.pos, nc, func(v rdf.ID, comps []core.AnnTG) error {
		s.Buf = core.AppendJoined(binary.AppendUvarint(s.Buf[:0], uint64(v)), comps)
		return nc.CollectTo(r.files[hash64.Bucket(uint64(v), len(r.files))], s.Buf)
	})
}

// joinTask is the map-only join operator for one bucket: the side input
// holds every resolved left record whose join value hashes to this bucket,
// and the task streams the grouped bucket joining right-side records (whose
// subject is the join value — map-only joins always bind the right star
// through its subject, so right subjects co-hash with their lefts).
type joinTask struct {
	q     *query.Query
	join  query.Join
	lefts map[rdf.ID][][]core.AnnTG
	next  *jlRoute // the following map-only join's left routing (nil when last)
	sc    core.Scratch
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
	for _, l := range j.lefts[comps[0].Subject] {
		joined := j.sc.Concat(l, comps)
		j.sc.Buf = core.AppendJoined(j.sc.Buf[:0], joined)
		if err := out.Collect(j.sc.Buf); err != nil {
			return err
		}
		if j.next != nil {
			nc, ok := out.(mapreduce.NamedCollector)
			if !ok {
				return fmt.Errorf("ntgamr: collector lacks MultipleOutputs support")
			}
			if err := j.next.emit(&j.sc, j.q, joined, nc); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinTaskFactory builds the join operator per bucket task from its side
// input (the routed left records).
type joinTaskFactory struct {
	q    *query.Query
	join query.Join
	next *jlRoute
}

func (f *joinTaskFactory) NewTask(_ int, side [][]byte) (mapreduce.MapOnlyMapper, error) {
	lefts := make(map[rdf.ID][][]core.AnnTG, len(side))
	var ls core.Scratch // the lefts live in its slabs for the whole task
	for _, rec := range side {
		v, comps, err := decodeResolved(&ls, rec)
		if err != nil {
			return nil, err
		}
		lefts[v] = append(lefts[v], comps)
	}
	return &joinTask{q: f.q, join: f.join, lefts: lefts, next: f.next}, nil
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
