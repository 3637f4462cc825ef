package ntgamr

import (
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Strategy selects when intermediate triplegroups are β-unnested.
type Strategy int

// The evaluation strategies of §4.
const (
	// Eager β-unnests during the star-join computation (Job1 reduce) —
	// the paper's EagerUnnest baseline.
	Eager Strategy = iota
	// LazyFull delays β-unnest to the map phase of the join cycle that
	// needs the unbound pattern's object (TG_UnbJoin).
	LazyFull
	// LazyPartial always uses the partial β-unnest operator μ^β_φm
	// (TG_OptUnbJoin) for joins on an unbound pattern's object.
	LazyPartial
	// LazyAuto is the paper's final LazyUnnest policy: lazy full β-unnest
	// for unbound-property patterns with partially-bound objects, lazy
	// partial β-unnest for those with unbound objects.
	LazyAuto
)

func (s Strategy) String() string {
	switch s {
	case Eager:
		return "Eager"
	case LazyFull:
		return "LazyFull"
	case LazyPartial:
		return "LazyPartial"
	case LazyAuto:
		return "LazyAuto"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultPhiM is the partition range the paper's experiments settle on
// (LazyUnnest(φ1K)); it aliases the planner's canonical constant.
const DefaultPhiM = plan.DefaultPhiM

// NTGA is the TripleGroup-algebra query engine.
type NTGA struct {
	strategy Strategy
	phiM     int
	name     string
}

// New returns an NTGA engine with the given strategy. phiM <= 0 selects
// DefaultPhiM.
func New(strategy Strategy, phiM int) *NTGA {
	if phiM <= 0 {
		phiM = DefaultPhiM
	}
	name := "NTGA-" + strategy.String()
	if strategy == LazyAuto {
		name = "NTGA-Lazy" // the paper's "LazyUnnest"
	}
	return &NTGA{strategy: strategy, phiM: phiM, name: name}
}

// NewEager returns the EagerUnnest engine.
func NewEager() *NTGA { return New(Eager, 0) }

// NewLazy returns the paper's LazyUnnest engine (auto policy, φ1K).
func NewLazy() *NTGA { return New(LazyAuto, 0) }

// Name implements engine.QueryEngine.
func (n *NTGA) Name() string { return n.name }

// Strategy returns the engine's unnesting strategy.
func (n *NTGA) Strategy() Strategy { return n.strategy }

// joinModeFor decides per join whether the cycle runs TG_OptUnbJoin
// (bucketed) or a direct-keyed join.
func (n *NTGA) joinModeFor(q *query.Query, j query.Join) joinMode {
	if n.strategy == Eager || n.strategy == LazyFull {
		return directMode
	}
	slotSide := func(pos query.Pos) (sel bool, isSlot bool) {
		if pos.Role != query.RoleSlotObj {
			return false, false
		}
		return q.Stars[pos.Star].Slots[pos.Idx].Obj.Selective(), true
	}
	lSel, lSlot := slotSide(j.Left)
	rSel, rSlot := slotSide(j.Right)
	if !lSlot && !rSlot {
		return directMode
	}
	if n.strategy == LazyPartial {
		return bucketedMode
	}
	// LazyAuto: partial β-unnest only pays off when the joining slot's
	// object is unbound (non-selective); partially-bound objects produce
	// few matches and a full unnest suffices (§5, Figure 11).
	if (lSlot && !lSel) || (rSlot && !rSel) {
		return bucketedMode
	}
	return directMode
}

// unnestFor maps a join's evaluation mode to the plan-level UnnestMode: no
// unnesting for bound-position joins (or eager strategies, where the groups
// are already expanded), lazy full μ^β for direct-keyed slot joins, partial
// μ^β_φm for bucketed ones.
func (n *NTGA) unnestFor(j query.Join, mode joinMode) plan.UnnestMode {
	if n.strategy == Eager {
		return plan.UnnestNone
	}
	if j.Left.Role != query.RoleSlotObj && j.Right.Role != query.RoleSlotObj {
		return plan.UnnestNone
	}
	if mode == bucketedMode {
		return plan.UnnestPartial
	}
	return plan.UnnestLazy
}

// PlanSource implements engine.QueryEngine: one grouping cycle computing
// every star subpattern, one triplegroup-join cycle per inter-star join, and
// — for COUNT(*) queries — a final count-fold cycle over the implicit
// representation.
//
// Over a subject-partitioned layout (src.Part) the grouping cycle runs
// map-only over the bucket files, and so does the longest subject-bound
// prefix of the join chain (left sides pre-routed by join value). The first
// join the layout cannot serve — and everything after it — runs the shuffle
// cycle, with the reason recorded on the node for EXPLAIN. Without a layout
// (nil or mismatched) the grouping cycle is the shuffled job1 and that prefix
// is empty.
func (n *NTGA) PlanSource(q *query.Query, src plan.Source, cl *engine.Cleaner) (*plan.Physical, error) {
	part := src.Part
	if !part.Matches(plan.PartitionKeySubject) {
		part = nil
	} else if err := plan.CheckBuckets(part.Buckets); err != nil {
		return nil, err
	}
	if len(q.Stars) == 0 {
		return nil, fmt.Errorf("ntgamr: query has no stars")
	}
	input := src.Base
	eager := n.strategy == Eager

	grouped := cl.Track(engine.TempName(n.name, "group"))
	group := &plan.Node{
		Kind: plan.KindGroupFilter, Name: "ntga-group", Star: -1,
		Inputs: []string{input}, Output: grouped,
	}
	if eager {
		group.Unnest = plan.UnnestEager
	}
	p := &plan.Physical{Engine: n.name, Input: input, Final: grouped}
	prefix := MapOnlyPrefix(part, q.Joins) // 0 without a layout
	var grpFiles []string
	var jl *jlRoute
	if prefix > 0 {
		grpFiles = tempBuckets(cl, engine.TempName(n.name, "group-b"), part.Buckets)
		jl = &jlRoute{
			pos:   q.Joins[0].Left,
			files: tempBuckets(cl, engine.TempName(n.name, "jl0"), part.Buckets),
		}
	}
	red := &groupFilterReducer{q: q, eager: eager}
	if part == nil {
		group.Job = job1(q, red, []string{input}, grouped)
	} else {
		// The same operators over the bucket files: each task reduces its
		// bucket's subject runs in place.
		p.PartInput = part.Dir
		group.Inputs = []string{part.Dir}
		group.MapSide, group.Part = true, part
		red.grpFiles, red.jl = grpFiles, jl
		group.Job = job1(q, red, part.Files(), grouped)
		group.Job.ExtraOutputs = append(append([]string(nil), grpFiles...), jlFilesOf(jl)...)
		group.Job.WholeFileSplits = true
	}
	p.Stages = append(p.Stages, plan.Stage{group})

	acc := grouped
	for ji := range q.Joins {
		j := q.Joins[ji]
		out := cl.Track(engine.TempName(n.name, fmt.Sprintf("join%d", ji)))
		name := fmt.Sprintf("%s-join%d", n.name, ji)
		if ji < prefix {
			var next *jlRoute
			if ji+1 < prefix {
				next = &jlRoute{
					pos:   q.Joins[ji+1].Left,
					files: tempBuckets(cl, engine.TempName(n.name, fmt.Sprintf("jl%d", ji+1)), part.Buckets),
				}
			}
			job := &mapreduce.Job{
				Name:            name,
				Inputs:          grpFiles,
				Output:          out,
				ExtraOutputs:    jlFilesOf(next),
				WholeFileSplits: true,
				TaskSideInputs:  jl.files,
				MapOnlyFactory:  &joinTaskFactory{q: q, join: j, next: next},
			}
			inputs := []string{grouped}
			if ji > 0 {
				inputs = []string{acc, grouped}
			}
			p.Stages = append(p.Stages, plan.Stage{{
				Kind: plan.KindTGJoin, Name: name, Star: -1,
				Inputs: inputs, Output: out, Join: &q.Joins[ji],
				Unnest:  n.unnestFor(j, directMode),
				MapSide: true, Part: part, Job: job,
			}})
			jl = next
			acc = out
			continue
		}
		// The shuffle cycle, reading the accumulated result and the (flat)
		// grouping output.
		mode := n.joinModeFor(q, j)
		job := tgJoinJob(q, name, j, mode, n.phiM, acc, grouped, out)
		node := &plan.Node{
			Kind: plan.KindTGJoin, Name: name, Star: -1,
			Inputs: append([]string(nil), job.Inputs...), Output: out,
			Join: &q.Joins[ji], Unnest: n.unnestFor(j, mode), Job: job,
		}
		if node.Unnest == plan.UnnestPartial {
			node.PhiM = n.phiM
		}
		if part != nil && ji == prefix {
			node.PartReason = partMissReason(j)
		}
		p.Stages = append(p.Stages, plan.Stage{node})
		acc = out
	}
	p.Final = acc
	if q.IsCount() {
		cntFile := cl.Track(engine.TempName(n.name, "count"))
		p.Stages = append(p.Stages, plan.Stage{{
			Kind: plan.KindCountFold, Name: "ntga-count", Star: -1,
			Inputs: []string{acc}, Output: cntFile,
			Job: countFoldJob(q, acc, cntFile),
		}})
		p.Final = cntFile
	}
	return p, nil
}

// Decoder implements engine.QueryEngine. A final record is a triplegroup
// whose (possibly still nested) components expand into binding rows. COUNT(*)
// queries use aggregation pushdown over the implicit representation: the
// plan's count-fold cycle sums the expansion counts of the still-nested
// triplegroups — no β-unnest happens at all for non-joining slots, and the
// sum Combiner folds partial counts at spill time — so each final record is
// a uvarint partial count.
func (n *NTGA) Decoder(q *query.Query) engine.DecodeFunc {
	if q.IsCount() {
		return func(dst []rdf.ID, record []byte) ([]rdf.ID, int64, error) {
			c, err := codec.NewReader(record).Uvarint()
			return dst, int64(c), err
		}
	}
	return joinedDecoder(q)
}

// joinedDecoder decodes final records that are joined triplegroups: their
// rows expanded straight into the slab or, for a COUNT(*) query, counted
// without expansion.
func joinedDecoder(q *query.Query) engine.DecodeFunc {
	var s core.Scratch // a DecodeFunc is one goroutine's
	return func(dst []rdf.ID, record []byte) ([]rdf.ID, int64, error) {
		s.Reset()
		comps, err := s.DecodeJoined(record)
		if err != nil {
			return dst, 0, err
		}
		if q.IsCount() {
			return dst, core.CountJoined(q, comps), nil
		}
		dst, rows, err := core.AppendExpanded(dst, q, comps)
		return dst, int64(rows), err
	}
}

// Plan is harness-facing (benchmark/adapter.go); use engine.Plan.
func (n *NTGA) Plan(q *query.Query, input string, cl *engine.Cleaner,
	_ *mapreduce.Counters) (*plan.Physical, error) {
	return engine.Plan(n, q, plan.Source{Base: input}, cl)
}

// Run is harness-facing (benchmark/adapter.go); use engine.Run.
func (n *NTGA) Run(mr *mapreduce.Engine, q *query.Query, input string) (*engine.Result, error) {
	return engine.Run(n, mr, q, plan.Source{Base: input})
}
