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
// join whose chain prefix keeps binding through star subjects run as
// map-only jobs over bucket-aligned whole-file tasks, so nothing crosses a
// shuffle. The flat path's byte-level semantics are reproduced exactly:
//
//   - bucket files are written by the loader's shuffle sorted by
//     (PutID(S), PutID(P)+PutID(O)) — the grouping cycle's own key/value
//     encoding — so a streaming scan sees each subject contiguously with its
//     (P,O) pairs in the flat reducer's sorted-value order;
//   - adjacent duplicate pairs are skipped, mirroring readGroup;
//   - join i's left side is resolved (pinned / fully β-unnested) by the
//     producing job and routed to the bucket of its join value, so join i's
//     task b joins lefts and rights that both hash to b.
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

func (r *jlRoute) emit(s *core.Scratch, q *query.Query, comps []core.AnnTG, counters *mapreduce.Counters,
	nc mapreduce.NamedCollector) error {
	return resolveJoinSide(s, q, comps, r.pos, counters, func(v rdf.ID, comps []core.AnnTG) error {
		s.Buf = core.AppendJoined(binary.AppendUvarint(s.Buf[:0], uint64(v)), comps)
		return nc.CollectTo(r.files[hash64.Bucket(uint64(v), len(r.files))], s.Buf)
	})
}

// groupTask is the map-only grouping operator for one bucket: a streaming
// TG_GroupByReduce + TG_UnbGrpFilter over the bucket file's
// subject-contiguous triples.
type groupTask struct {
	q         *query.Query
	eager     bool
	counters  *mapreduce.Counters
	grpBucket string   // this task's grouped bucket file ("" when unused)
	jl        *jlRoute // first map-only join's left routing (nil when unused)

	sc       core.Scratch // sc.Pairs is the group being assembled
	started  bool
	subject  rdf.ID
	haveLast bool
	last     core.PO
}

func (g *groupTask) MapRecord(_ string, record []byte, out mapreduce.Collector) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	if !g.q.TripleRelevant(t) {
		return nil
	}
	if !g.started || t.S != g.subject {
		if err := g.flushGroup(out); err != nil {
			return err
		}
		g.started = true
		g.subject = t.S
		g.sc.Pairs = g.sc.Pairs[:0]
		g.haveLast = false
	}
	p := core.PO{P: t.P, O: t.O}
	// Adjacent duplicates collapse exactly as in readGroup: the loader's
	// shuffle sorted equal triples next to each other.
	if g.haveLast && p == g.last {
		return nil
	}
	g.haveLast = true
	g.last = p
	g.sc.Pairs = append(g.sc.Pairs, p)
	return nil
}

func (g *groupTask) Flush(out mapreduce.Collector) error {
	return g.flushGroup(out)
}

func (g *groupTask) flushGroup(out mapreduce.Collector) error {
	if !g.started {
		return nil
	}
	g.sc.Reset()
	tg := core.NewTripleGroup(g.subject, g.sc.Pairs)
	g.counters.Inc(CounterGroups, 1)
	return filterGroup(&g.sc, g.q, tg, g.eager, g.counters, func(comps []core.AnnTG, rec []byte) error {
		if err := out.Collect(rec); err != nil {
			return err
		}
		if g.grpBucket == "" && g.jl == nil {
			return nil
		}
		nc, ok := out.(mapreduce.NamedCollector)
		if !ok {
			return fmt.Errorf("ntgamr: collector lacks MultipleOutputs support")
		}
		if g.grpBucket != "" {
			if err := nc.CollectTo(g.grpBucket, rec); err != nil {
				return err
			}
		}
		if g.jl != nil && comps[0].EC == g.jl.pos.Star {
			return g.jl.emit(&g.sc, g.q, comps, g.counters, nc)
		}
		return nil
	})
}

// groupTaskFactory builds the grouping operator per bucket task.
type groupTaskFactory struct {
	q        *query.Query
	eager    bool
	counters *mapreduce.Counters
	grpFiles []string // grouped bucket files, indexed by task (nil when unused)
	jl       *jlRoute // nil when the first join is not map-only
}

func (f *groupTaskFactory) NewTask(task int, _ [][]byte) (mapreduce.TaskMapper, error) {
	grp := ""
	if f.grpFiles != nil {
		if task >= len(f.grpFiles) {
			return nil, fmt.Errorf("ntgamr: group task %d beyond %d buckets", task, len(f.grpFiles))
		}
		grp = f.grpFiles[task]
	}
	return &groupTask{q: f.q, eager: f.eager, counters: f.counters, grpBucket: grp, jl: f.jl}, nil
}

// joinTask is the map-only join operator for one bucket: the side input
// holds every resolved left record whose join value hashes to this bucket,
// and the task streams the grouped bucket joining right-side records (whose
// subject is the join value — map-only joins always bind the right star
// through its subject, so right subjects co-hash with their lefts).
type joinTask struct {
	q        *query.Query
	join     query.Join
	counters *mapreduce.Counters
	lefts    map[rdf.ID][][]core.AnnTG
	next     *jlRoute // the following map-only join's left routing (nil when last)
	sc       core.Scratch
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
			if err := j.next.emit(&j.sc, j.q, joined, j.counters, nc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *joinTask) Flush(mapreduce.Collector) error { return nil }

// joinTaskFactory builds the join operator per bucket task from its side
// input (the routed left records).
type joinTaskFactory struct {
	q        *query.Query
	join     query.Join
	counters *mapreduce.Counters
	next     *jlRoute
}

func (f *joinTaskFactory) NewTask(_ int, side [][]byte) (mapreduce.TaskMapper, error) {
	lefts := make(map[rdf.ID][][]core.AnnTG, len(side))
	var ls core.Scratch // the lefts live in its slabs for the whole task
	for _, rec := range side {
		v, comps, err := decodeResolved(&ls, rec)
		if err != nil {
			return nil, err
		}
		lefts[v] = append(lefts[v], comps)
	}
	return &joinTask{q: f.q, join: f.join, counters: f.counters, lefts: lefts, next: f.next}, nil
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
