// Package plan is the unified physical-plan layer between the query
// compiler and the MapReduce engines. Every query engine in this repository
// (the relational baselines in relmr and the NTGA engines in ntgamr)
// *produces* a plan.Physical — a staged sequence of typed plan nodes, each
// describing one MR cycle — and a single lowering pass (Physical.Lower)
// turns it into the []mapreduce.Stage the executor runs.
//
// The point of the layer is that the paper's argument is a *cost* argument:
// NTGA wins because grouping computes every star subpattern in one cycle
// and lazy/partial β-unnest (μ^β, μ^β_φm) shrinks the shuffled intermediate
// footprint. The typed nodes carry exactly the attributes that accounting
// needs — which star a cycle computes, which join it performs, how the
// joining slot is unnested (UnnestMode), the partition range φ_m — so a
// catalog-driven cost model (cost.go) can price any plan without executing
// it, and an optimizer (optimizer.go) can compare join orders and engines.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"ntga/internal/mapreduce"
	"ntga/internal/query"
)

// Kind classifies a plan node (one MR cycle) by the physical operator it
// executes.
type Kind int

// The plan-node kinds. Each node is one MR cycle; the paper's operators map
// onto kinds plus the UnnestMode attribute:
//
//	Scan            — implicit: every node's Inputs that name the plan's
//	                  base relation are full scans of T (ScanCount).
//	KindSplit       — Pig's SPLIT/compress: map-only filter of T.
//	KindStarJoin    — relational star-join of one star's VP relations.
//	KindGroupFilter — NTGA Job1: TG_GroupByMap + TG_GroupByReduce +
//	                  TG_UnbGrpFilter (β group-filter); with
//	                  UnnestEager it also applies eager μ^β.
//	KindTGJoin      — triplegroup join cycle: TG_Join (UnnestNone),
//	                  TG_UnbJoin (UnnestLazy: map-side full μ^β), or
//	                  TG_OptUnbJoin (UnnestPartial: μ^β_φm, bucketed).
//	KindRelJoin     — relational reduce-side equi-join of tuple files.
//	KindEdgeJoin    — Sel-SJ-first's selective edge join (cycle 1, O-O).
//	KindCompletion  — Sel-SJ-first's combined star-join + join cycle.
//	KindCountFold   — COUNT(*) aggregation over the implicit
//	                  representation (sum of expansion counts).
const (
	KindSplit Kind = iota
	KindStarJoin
	KindGroupFilter
	KindTGJoin
	KindRelJoin
	KindEdgeJoin
	KindCompletion
	KindCountFold
	// KindDeltaUnion is the virtual input node the ingest overlay prepends:
	// it declares that the logical relation T is the union of the base file
	// and an ordered delta chain. It lowers to no MR job — the union is
	// realized by widening the Inputs of every T-scanning node — so it is
	// excluded from Cycles, ScanCount, and cost accounting.
	KindDeltaUnion
)

func (k Kind) String() string {
	switch k {
	case KindSplit:
		return "Split"
	case KindStarJoin:
		return "StarJoin"
	case KindGroupFilter:
		return "GroupFilter"
	case KindTGJoin:
		return "TGJoin"
	case KindRelJoin:
		return "RelJoin"
	case KindEdgeJoin:
		return "EdgeJoin"
	case KindCompletion:
		return "Completion"
	case KindCountFold:
		return "CountFold"
	case KindDeltaUnion:
		return "DeltaUnion"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// UnnestMode says when (and how) a node β-unnests unbound-property slots.
type UnnestMode int

// The unnesting modes of §4 of the paper.
const (
	// UnnestNone: nothing is unnested (bound joins, lazy grouping).
	UnnestNone UnnestMode = iota
	// UnnestEager: μ^β during the grouping reduce (EagerUnnest).
	UnnestEager
	// UnnestLazy: map-side full μ^β of the joining slot (TG_UnbJoin).
	UnnestLazy
	// UnnestPartial: partial μ^β_φm keyed by bucket (TG_OptUnbJoin).
	UnnestPartial
)

func (m UnnestMode) String() string {
	switch m {
	case UnnestNone:
		return "none"
	case UnnestEager:
		return "eager"
	case UnnestLazy:
		return "lazy-full"
	case UnnestPartial:
		return "partial"
	default:
		return fmt.Sprintf("UnnestMode(%d)", int(m))
	}
}

// Node is one typed physical-plan node — one MR cycle. The descriptive
// fields drive cost estimation and EXPLAIN rendering; Job is the lowered
// MapReduce job the executor runs (bound by the engine that produced the
// plan, nil in stats-only plans built without a dataset).
type Node struct {
	// Kind is the physical operator.
	Kind Kind
	// Name is the MR job name (matches Job.Name when Job is set).
	Name string
	// Inputs and Output are DFS file names; Inputs naming the plan's Input
	// are full scans of the triple relation.
	Inputs []string
	Output string

	// Star is the star index a StarJoin/Completion node computes, or -1.
	Star int
	// Join is the inter-star join a TGJoin/RelJoin/EdgeJoin node performs.
	Join *query.Join
	// Unnest says how the node treats unbound slots (see UnnestMode).
	Unnest UnnestMode
	// PhiM is the μ^β_φm partition range (UnnestPartial nodes).
	PhiM int
	// DoubleCopy marks a Split that materializes the relation twice (the
	// Pig unbound-query pattern the paper calls out).
	DoubleCopy bool

	// MapSide marks a cycle rewritten to the no-shuffle map-only form: the
	// node reads co-partitioned inputs, its map attempts commit final
	// output directly, and the reduce phase is elided (shuffle bytes 0).
	MapSide bool
	// Part is the physical partitioning property of the node's input (and,
	// for partition-preserving operators, of its output). Nil means the
	// input is an unpartitioned flat file.
	Part *Partitioning
	// PartReason, on a shuffle node planned while a partitioned layout was
	// available, says why the map-only rewrite could not fire (EXPLAIN
	// renders it).
	PartReason string

	// Job is the lowered MapReduce job. Plans produced by an engine always
	// carry one; plans built only for cost inspection may not.
	Job *mapreduce.Job
}

// Stage is a set of nodes that may execute concurrently (Pig-style
// independent jobs); stages run in sequence.
type Stage []*Node

// Physical is a complete physical plan: the staged node DAG from the base
// triple relation to the final output file.
type Physical struct {
	// Engine names the engine that produced the plan.
	Engine string
	// Input is the DFS name of the base triple relation T.
	Input string
	// PartInput, when set, is the partitioned layout directory the plan
	// reads in place of full scans of Input; Summary renders it as "P".
	PartInput string
	// Deltas, when non-empty, is the ordered delta chain overlaid on Input
	// (ApplyDeltaOverlay): every scan of T reads base ∪ deltas. Summary
	// renders the chain as "D1", "D2", ....
	Deltas []string
	// Stages is the plan body, in execution order.
	Stages []Stage
	// Final is the DFS file holding the plan's result.
	Final string
}

// Nodes returns every node in execution order (stage by stage).
func (p *Physical) Nodes() []*Node {
	var out []*Node
	for _, st := range p.Stages {
		out = append(out, st...)
	}
	return out
}

// Cycles counts the MR cycles (jobs) in the plan — the paper's
// workflow-length metric.
func (p *Physical) Cycles() int {
	n := 0
	for _, st := range p.Stages {
		for _, node := range st {
			if node.Kind != KindDeltaUnion {
				n++
			}
		}
	}
	return n
}

// scans reports whether the node reads the base triple relation T.
func (p *Physical) scans(node *Node) bool {
	return node.Kind != KindDeltaUnion && slices.Contains(node.Inputs, p.Input)
}

// ScanCount counts how many jobs scan the base triple relation — the
// Figure 3 "full scans of T" metric.
func (p *Physical) ScanCount() int {
	n := 0
	for _, node := range p.Nodes() {
		if p.scans(node) {
			n++
		}
	}
	return n
}

// FirstScan returns the first node, in execution order, that scans T (nil
// when none does: a plan reading only a bucketed layout).
func (p *Physical) FirstScan() *Node {
	for _, node := range p.Nodes() {
		if p.scans(node) {
			return node
		}
	}
	return nil
}

// ApplyDeltaOverlay rewrites the plan to read base ∪ deltas wherever it
// scans the base relation: a virtual KindDeltaUnion node is prepended to
// document the overlay, and every node whose Inputs name p.Input gains the
// delta files on both the node and its lowered Job. Because the MR engine
// plans splits per input in order and totally orders shuffled (key, value)
// pairs, the overlaid plan's outputs are byte-identical to running the
// original plan over a compacted (or freshly reloaded) merged relation —
// the invariant the ingest parity suite pins down. A nil/empty chain is a
// no-op. A map-only node reads bucket files, not T, and would miss the
// deltas: engine.Plan, the overlay's one caller, plans flat first.
func (p *Physical) ApplyDeltaOverlay(deltas []string) {
	if len(deltas) == 0 {
		return
	}
	p.Deltas = append([]string(nil), deltas...)
	for _, node := range p.Nodes() {
		if !p.scans(node) {
			continue
		}
		node.Inputs = append(node.Inputs, p.Deltas...)
		if node.Job != nil {
			node.Job.Inputs = append(node.Job.Inputs, p.Deltas...)
		}
	}
	union := &Node{
		Kind:   KindDeltaUnion,
		Name:   "delta-union",
		Inputs: append([]string{p.Input}, p.Deltas...),
		Output: p.Input,
		Star:   -1,
	}
	p.Stages = append([]Stage{{union}}, p.Stages...)
}

// Lower turns the plan into executable MapReduce stages. It fails if any
// node lacks a bound Job (a stats-only plan cannot execute).
func (p *Physical) Lower() ([]mapreduce.Stage, error) {
	stages := make([]mapreduce.Stage, 0, len(p.Stages))
	for si, st := range p.Stages {
		stage := make(mapreduce.Stage, 0, len(st))
		for _, node := range st {
			if node.Kind == KindDeltaUnion {
				continue // virtual: realized by the widened scan inputs
			}
			if node.Job == nil {
				return nil, fmt.Errorf("plan: node %s (%v, stage %d) has no lowered job", node.Name, node.Kind, si)
			}
			stage = append(stage, node.Job)
		}
		if len(stage) == 0 {
			continue
		}
		stages = append(stages, stage)
	}
	return stages, nil
}

// Summary renders a compact one-node-per-line description of the plan with
// intermediate file names normalized ($1, $2, ... in order of appearance),
// so the output is deterministic across processes — the form the EXPLAIN
// goldens pin down.
func (p *Physical) Summary() string {
	names := map[string]string{p.Input: "T"}
	if p.PartInput != "" {
		names[p.PartInput] = "P"
	}
	for i, d := range p.Deltas {
		names[d] = fmt.Sprintf("D%d", i+1)
	}
	norm := func(f string) string {
		if n, ok := names[f]; ok {
			return n
		}
		n := fmt.Sprintf("$%d", len(names))
		names[f] = n
		return n
	}
	var sb strings.Builder
	for si, st := range p.Stages {
		for _, node := range st {
			attrs := []string{}
			if node.Star >= 0 {
				attrs = append(attrs, fmt.Sprintf("star=%d", node.Star))
			}
			if node.Join != nil {
				attrs = append(attrs, fmt.Sprintf("join=?%s", node.Join.Var))
			}
			if node.Unnest != UnnestNone {
				attrs = append(attrs, "unnest="+node.Unnest.String())
			}
			if node.Unnest == UnnestPartial && node.PhiM > 0 {
				attrs = append(attrs, fmt.Sprintf("phi=%d", node.PhiM))
			}
			if node.DoubleCopy {
				attrs = append(attrs, "copies=2")
			}
			if node.MapSide {
				attrs = append(attrs, "map-only")
			}
			if node.Part != nil {
				attrs = append(attrs, "part="+node.Part.String())
			}
			if node.PartReason != "" {
				attrs = append(attrs, fmt.Sprintf("part-miss=%q", node.PartReason))
			}
			ins := make([]string, len(node.Inputs))
			for i, in := range node.Inputs {
				ins[i] = norm(in)
			}
			a := ""
			if len(attrs) > 0 {
				a = " [" + strings.Join(attrs, " ") + "]"
			}
			fmt.Fprintf(&sb, "stage %d: %-12s %s <- %s%s\n",
				si+1, node.Kind.String(), norm(node.Output), strings.Join(ins, "+"), a)
		}
	}
	return sb.String()
}
