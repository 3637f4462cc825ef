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
	// from the final job's records, in task order (the order of the final
	// file, had it been written). They are views of a few ID slabs, each
	// clipped to its own width (see Execute). Nil if the workflow failed, if
	// there are no rows, or if the query is a COUNT(*) aggregation (see
	// Count).
	Rows []query.Row
	// IsCount marks a COUNT(*) aggregation result; Count holds the answer.
	// The NTGA engines compute it from the implicit (nested) representation
	// without β-unnesting.
	IsCount bool
	Count   int64
	// Workflow carries the per-job cost metrics.
	Workflow mapreduce.WorkflowMetrics
	// Counters are engine-specific counters (e.g. triplegroups unnested):
	// the workflow's sum of JobMetrics.Counters, so each task counts once,
	// by its winning attempt.
	Counters map[string]int64
	// OutputRecords / OutputBytes describe the final output: the number of
	// physical records (n-tuples or triplegroups — the paper's "63K tuples
	// vs 7K vs 3K triplegroups" comparison) and their size, whether or not
	// they were written to the DFS.
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
	// Intermediate file names are registered with cl for later cleanup.
	// The plan's typed nodes drive the cost model and EXPLAIN;
	// Physical.Lower yields the executable stages.
	PlanSource(q *query.Query, src plan.Source, cl *Cleaner) (*plan.Physical, error)
	// Decoder returns a fresh decoder of the plan's final records (see
	// DecodeFunc); Execute asks for one per task attempt of the final job.
	Decoder(q *query.Query) DecodeFunc

	// Plan and Run are harness-facing: the frozen benchmark/adapter.go calls
	// them with these signatures. Implementations forward to the package's
	// Plan and Run over Source{Base: input}; the root module never calls them.
	// Plan ignores its counters argument: an operator counts on its task
	// attempt's Emitter or Collector.
	Plan(q *query.Query, input string, cl *Cleaner, counters *mapreduce.Counters) (*plan.Physical, error)
	Run(mr *mapreduce.Engine, q *query.Query, input string) (*Result, error)
}

// Plan builds e's physical plan for the query over src — the one way any
// caller obtains a plan. An uncompacted delta makes any layout stale by
// definition, so beside a non-empty chain the layout is dropped before the
// engine sees it and the first scan of T says so (part-miss in EXPLAIN); the
// chain is then overlaid on every scan of T.
func Plan(e QueryEngine, q *query.Query, src plan.Source, cl *Cleaner) (*plan.Physical, error) {
	stale := src.Part != nil && len(src.Deltas) > 0
	if stale {
		src.Part = nil
	}
	p, err := e.PlanSource(q, src, cl)
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

// Run plans the query over src, lowers and executes the plan, and takes its
// rows from the final job through a result sink (Execute): the final output
// is never written to the DFS. Every file the run created is removed, even
// on failure, and the Result is never nil: beside an error it carries the
// metrics of the jobs that did run (e.g. up to a disk-full one).
// Workflow.FullScans comes from the plan (the Figure 3 "full scans of T"
// accounting).
func Run(e QueryEngine, mr *mapreduce.Engine, q *query.Query, src plan.Source) (*Result, error) {
	return run(e, mr, q, src, false)
}

// RunPersisted is Run with the final output also written to the DFS, as the
// paper's Hadoop jobs do: the final cycle pays for its HDFS write (and can
// fail on a full disk) exactly like every cycle before it, while the rows
// still reach the caller through the sink, decoded in the same pass and never
// read back. The paper figures (internal/bench) use it.
func RunPersisted(e QueryEngine, mr *mapreduce.Engine, q *query.Query, src plan.Source) (*Result, error) {
	return run(e, mr, q, src, true)
}

func run(e QueryEngine, mr *mapreduce.Engine, q *query.Query, src plan.Source, persist bool) (*Result, error) {
	var cl Cleaner
	var stages []mapreduce.Stage
	p, err := Plan(e, q, src, &cl)
	if err == nil {
		stages, err = p.Lower()
	}
	if err != nil {
		cl.Clean(mr)
		return &Result{Engine: e.Name()}, err
	}
	res, err := Execute(mr, p.Engine, stages, p.Final, &cl, q,
		func() DecodeFunc { return e.Decoder(q) }, persist)
	res.Workflow.FullScans = p.ScanCount()
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
