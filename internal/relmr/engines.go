package relmr

import (
	"fmt"

	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Style selects between the two relational baselines' plan shapes.
type Style int

// The relational plan styles.
const (
	// StyleHive: one star-join per MR cycle, each cycle scanning the triple
	// relation once (shared scan across the star's VP relations); cycles
	// run sequentially.
	StyleHive Style = iota
	// StylePig: an initial map-only SPLIT/compress job materializes the
	// query-relevant subset of the input; star-join jobs scan that copy
	// and run concurrently (Pig submits independent MR jobs in parallel).
	StylePig
)

// Relational is the Pig-style / Hive-style one-star-join-per-cycle engine.
type Relational struct {
	style Style
	name  string
	w     wire
}

// NewPig returns the Pig-style engine (binary wire format).
func NewPig() *Relational { return &Relational{style: StylePig, name: "Pig"} }

// NewHive returns the Hive-style engine (binary wire format).
func NewHive() *Relational { return &Relational{style: StyleHive, name: "Hive"} }

// NewPigText and NewHiveText return the engines with the text wire format:
// intermediate tuples materialized as tab-separated N-Triples terms, the
// representation real Pig/Hive write between jobs. Text tuples repeat the
// full term strings in every column, so footprints (and disk-full
// behaviour) match the paper's string-based measurements more closely than
// the dictionary-ID encoding does.
func NewPigText() *Relational {
	return &Relational{style: StylePig, name: "Pig-text", w: wire{text: true}}
}

// NewHiveText is the text-wire Hive-style engine; see NewPigText.
func NewHiveText() *Relational {
	return &Relational{style: StyleHive, name: "Hive-text", w: wire{text: true}}
}

// NewSJPerCycle returns the Figure 3 "SJ-per-cycle" baseline: structurally
// the Hive plan (one star-join cycle per star, then join cycles), named
// separately for the case-study comparison.
func NewSJPerCycle() *Relational { return &Relational{style: StyleHive, name: "SJ-per-cycle"} }

// Name implements engine.QueryEngine.
func (r *Relational) Name() string { return r.name }

// PlanSource implements engine.QueryEngine: it builds the physical plan
// without executing anything.
//
// Over a subject-partitioned layout (src.Part) Hive-style star-join cycles
// run shuffle-free over the bucket files; the relational join cycles still
// shuffle (and the first says why). Pig-style plans ignore the layout — the
// SPLIT pass re-materializes the input, discarding it before any star-join
// could use it.
func (r *Relational) PlanSource(q *query.Query, src plan.Source, cl *engine.Cleaner) (*plan.Physical, error) {
	if len(q.Stars) == 0 {
		return nil, fmt.Errorf("relmr: query has no stars")
	}
	input := src.Base
	part := src.Part
	if r.style == StylePig || !part.Matches(plan.PartitionKeySubject) {
		part = nil
	}
	p := &plan.Physical{Engine: r.name, Input: input}

	scanInput := input
	if part != nil {
		if err := plan.CheckBuckets(part.Buckets); err != nil {
			return nil, err
		}
		p.PartInput = part.Dir
		scanInput = part.Dir
	}
	if r.style == StylePig {
		vp := cl.Track(engine.TempName(r.name, "split"))
		job := splitJob(q, input, vp)
		p.Stages = append(p.Stages, plan.Stage{{
			Kind: plan.KindSplit, Name: job.Name, Star: -1,
			Inputs: []string{input}, Output: vp,
			DoubleCopy: splitDoubleCopies(q), Job: job,
		}})
		scanInput = vp
	}

	starFiles := make([]string, len(q.Stars))
	var starStage plan.Stage
	for i, st := range q.Stars {
		starFiles[i] = cl.Track(engine.TempName(r.name, fmt.Sprintf("star%d", i)))
		name := fmt.Sprintf("%s-star%d", r.name, i)
		node := &plan.Node{
			Kind: plan.KindStarJoin, Name: name, Star: i,
			Inputs: []string{scanInput}, Output: starFiles[i],
		}
		if part != nil {
			// The same operators over the bucket files, each task reducing
			// its bucket's subject runs in place.
			node.MapSide, node.Part = true, part
			node.Job = starJoinJob(name, q, st, r.w, part.Files(), starFiles[i])
			node.Job.WholeFileSplits = true
		} else {
			node.Job = starJoinJob(name, q, st, r.w, []string{scanInput}, starFiles[i])
		}
		if r.style == StylePig {
			starStage = append(starStage, node)
		} else {
			p.Stages = append(p.Stages, plan.Stage{node})
		}
	}
	if r.style == StylePig {
		p.Stages = append(p.Stages, starStage)
	}

	first := 0
	if len(q.Joins) > 0 {
		first = q.Joins[0].Left.Star
	}
	acc := starFiles[first]
	for ji := range q.Joins {
		j := q.Joins[ji]
		out := cl.Track(engine.TempName(r.name, fmt.Sprintf("join%d", ji)))
		name := fmt.Sprintf("%s-join%d", r.name, ji)
		right := starFiles[j.Right.Star]
		node := &plan.Node{
			Kind: plan.KindRelJoin, Name: name, Star: -1,
			Inputs: []string{acc, right}, Output: out, Join: &q.Joins[ji],
			Job: joinJob(q, name, j, r.w, acc, right, out),
		}
		if part != nil && ji == 0 {
			node.PartReason = relJoinPartMiss(j)
		}
		p.Stages = append(p.Stages, plan.Stage{node})
		acc = out
	}
	p.Final = acc
	return p, nil
}

// relJoinPartMiss explains why a relational join cycle cannot use the
// layout: its key is a variable binding of materialized tuples, not the
// subject hash the bucket files are laid out on.
func relJoinPartMiss(j query.Join) string {
	return fmt.Sprintf("join ?%s keys on a tuple binding, not the layout's subject hash", j.Var)
}

// splitDoubleCopies reports whether the SPLIT job materializes the relation
// twice (the Pig unbound-query pattern the paper calls out: one copy for
// the bound patterns, one for the unbound slots).
func splitDoubleCopies(q *query.Query) bool {
	for _, st := range q.Stars {
		if st.HasUnbound() {
			return true
		}
	}
	return false
}

// Decoder implements engine.QueryEngine.
func (r *Relational) Decoder(q *query.Query) engine.DecodeFunc {
	return decoder(q, r.w)
}

// Plan is harness-facing (benchmark/adapter.go); use engine.Plan.
func (r *Relational) Plan(q *query.Query, input string, cl *engine.Cleaner,
	_ *mapreduce.Counters) (*plan.Physical, error) {
	return engine.Plan(r, q, plan.Source{Base: input}, cl)
}

// Run is harness-facing (benchmark/adapter.go); use engine.Run.
func (r *Relational) Run(mr *mapreduce.Engine, q *query.Query, input string) (*engine.Result, error) {
	return engine.Run(r, mr, q, plan.Source{Base: input})
}

// decoder is the result decoder of every engine in this package: one final
// record is one tuple of either wire format. The relational representation
// is fully expanded, so a COUNT(*) answer is simply the final record count.
func decoder(q *query.Query, w wire) engine.DecodeFunc {
	if q.IsCount() {
		return func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) {
			return dst, 1, nil
		}
	}
	return func(dst []rdf.ID, record []byte) ([]rdf.ID, int64, error) {
		t, err := w.decodeTuple(q, record)
		if err != nil {
			return dst, 0, err
		}
		return appendTupleRow(dst, q, t), 1, nil
	}
}
