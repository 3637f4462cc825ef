// Package engine defines the interface every distributed query engine in
// this repository implements (the relational-style baselines in relmr and
// the NTGA engines in ntgamr), plus the shared result type the benchmark
// harness consumes.
package engine

import (
	"fmt"
	"sync/atomic"

	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
)

// Result is the outcome of running one query through one engine.
type Result struct {
	// Engine is the name of the engine that produced the result.
	Engine string
	// Rows are the full binding rows (indexed by query.AllVars) decoded
	// from the final output file. Nil if the workflow failed or if the
	// query is a COUNT(*) aggregation (see Count).
	Rows []query.Row
	// IsCount marks a COUNT(*) aggregation result; Count holds the answer.
	// The NTGA engines compute it from the implicit (nested) representation
	// without β-unnesting.
	IsCount bool
	Count   int64
	// Workflow carries the per-job cost metrics.
	Workflow mapreduce.WorkflowMetrics
	// Counters are engine-specific counters (e.g. triplegroups unnested).
	Counters map[string]int64
	// OutputRecords / OutputBytes describe the final output file: the
	// number of physical records (n-tuples or triplegroups — the paper's
	// "63K tuples vs 7K vs 3K triplegroups" comparison) and their size.
	OutputRecords int64
	OutputBytes   int64
	// PeakDFSUsed is the cluster's disk high-water mark during the run
	// (physical bytes, including replication).
	PeakDFSUsed int64
}

// QueryEngine is what an engine contributes to a query: a name, one plan
// builder and one decoder of its final output. What of the source a plan may
// use, the delta overlay, lowering, execution and cleanup are Plan and Run
// below, the same for every engine.
type QueryEngine interface {
	// Name identifies the engine in reports ("Pig", "Hive", "NTGA-Eager", ...).
	Name() string
	// PlanSource builds the engine's physical plan over the triple relation
	// src.Base, without executing anything. An engine that can exploit the
	// bucketed layout src.Part rewrites eligible cycles to their map-only
	// form and records on the first cycle it cannot why; one that cannot
	// ignores it. No builder reads src.Deltas (Plan overlays the chain).
	// Intermediate file names are registered with cl for later cleanup;
	// engines that maintain run counters draw them from counters (nil
	// selects a throwaway set). The plan's typed nodes drive the cost model
	// and EXPLAIN; Physical.Lower yields the executable stages.
	PlanSource(q *query.Query, src plan.Source, cl *Cleaner, counters *mapreduce.Counters) (*plan.Physical, error)
	// Decoder returns the function that turns one record of the plan's final
	// file into binding rows — or, for a COUNT(*) query, into no rows and
	// the record's share of the answer added to *count.
	Decoder(q *query.Query, count *int64) DecodeFunc

	// Plan and Run are harness-facing: the frozen benchmark/adapter.go calls
	// them with these signatures. Implementations forward to the package's
	// Plan and Run over Source{Base: input}; the root module never calls them.
	Plan(q *query.Query, input string, cl *Cleaner, counters *mapreduce.Counters) (*plan.Physical, error)
	Run(mr *mapreduce.Engine, q *query.Query, input string) (*Result, error)
}

// Plan builds e's physical plan for the query over src — the one way any
// caller obtains a plan. An uncompacted delta makes any layout stale by
// definition, so beside a non-empty chain the layout is dropped before the
// engine sees it and the first scan of T says so (part-miss in EXPLAIN); the
// chain is then overlaid on every scan of T.
func Plan(e QueryEngine, q *query.Query, src plan.Source, cl *Cleaner,
	counters *mapreduce.Counters) (*plan.Physical, error) {
	stale := src.Part != nil && len(src.Deltas) > 0
	if stale {
		src.Part = nil
	}
	p, err := e.PlanSource(q, src, cl, counters)
	if err != nil {
		return nil, err
	}
	if stale {
		if node := p.FirstScan(); node != nil {
			node.PartReason = fmt.Sprintf("layout stale: %d uncompacted delta blocks", len(src.Deltas))
		}
	}
	p.ApplyDeltaOverlay(src.Deltas)
	return p, nil
}

// Run plans the query over src, lowers and executes the plan, and decodes
// its final file. Every file the run created is removed, even on failure,
// and the Result is never nil: beside an error it carries the metrics of the
// jobs that did run (e.g. up to a disk-full one). Workflow.FullScans comes
// from the plan (the Figure 3 "full scans of T" accounting).
func Run(e QueryEngine, mr *mapreduce.Engine, q *query.Query, src plan.Source) (*Result, error) {
	var cl Cleaner
	var stages []mapreduce.Stage
	counters := mapreduce.NewCounters()
	p, err := Plan(e, q, src, &cl, counters)
	if err == nil {
		stages, err = p.Lower()
	}
	if err != nil {
		cl.Clean(mr)
		return &Result{Engine: e.Name()}, err
	}
	var count int64
	res, err := Execute(mr, p.Engine, stages, p.Final, &cl, counters, e.Decoder(q, &count))
	res.Workflow.FullScans = p.ScanCount()
	res.IsCount, res.Count = q.IsCount(), count
	return res, err
}

// RunMaybePartitioned is harness-facing (benchmark/adapter.go only); use Run.
func RunMaybePartitioned(e QueryEngine, mr *mapreduce.Engine, q *query.Query,
	input string, part *plan.Partitioning) (*Result, error) {
	return Run(e, mr, q, plan.Source{Base: input, Part: part})
}

// RunWithDeltas is harness-facing (benchmark/adapter.go only); use Run.
func RunWithDeltas(e QueryEngine, mr *mapreduce.Engine, q *query.Query,
	input string, deltas []string, part *plan.Partitioning) (*Result, error) {
	return Run(e, mr, q, plan.Source{Base: input, Deltas: deltas, Part: part})
}

var tempSeq atomic.Int64

// TempName returns a unique DFS path for an intermediate file.
func TempName(engine, kind string) string {
	return fmt.Sprintf("tmp/%s/%s-%d", engine, kind, tempSeq.Add(1))
}

// Cleaner tracks files created during a run for removal afterwards.
type Cleaner struct {
	names []string
}

// Track registers a file for cleanup and returns its name unchanged.
func (c *Cleaner) Track(name string) string {
	c.names = append(c.names, name)
	return name
}

// Clean removes every tracked file that exists.
func (c *Cleaner) Clean(mr *mapreduce.Engine) {
	for _, n := range c.names {
		mr.DFS().DeleteIfExists(n)
	}
	c.names = nil
}
