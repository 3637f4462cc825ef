package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// EngineConfig tunes the execution engine.
type EngineConfig struct {
	// MapParallelism is the number of concurrent map tasks; 0 defaults to
	// GOMAXPROCS.
	MapParallelism int
	// ReduceParallelism is the number of concurrent reduce tasks; 0
	// defaults to GOMAXPROCS.
	ReduceParallelism int
	// DefaultReducers is the reduce partition count used when a job does
	// not set NumReducers; 0 defaults to 8.
	DefaultReducers int
	// SplitRecords is the number of records per map split; 0 defaults to
	// 8192. Smaller splits increase map-task parallelism.
	SplitRecords int
	// SortBufferBytes bounds each map task's in-memory output buffer
	// (Hadoop's io.sort.mb): when the buffered key+value bytes reach the
	// budget the task sorts the buffer, applies the job's combiner, and
	// spills a run to node-local disk. 0 means unbounded — no spilling,
	// the pre-refactor in-memory behavior.
	SortBufferBytes int64
	// MergeFactor bounds how many on-disk runs one external merge reads at
	// once (Hadoop's io.sort.factor); more runs force intermediate merge
	// passes. In-memory segments never count against it. 0 defaults to 10.
	MergeFactor int
	// TaskMaxAttempts is the per-task retry budget (Hadoop's
	// mapreduce.map.maxattempts); 0 defaults to 1 (no retries).
	TaskMaxAttempts int
	// Faults, when non-nil, is the seeded chaos schedule: mid-phase
	// failures inside scan/map/sort/spill/merge/reduce/write, simulated
	// node deaths (losing local spill disks and every attempt pinned to
	// the node), and straggler delays. See FaultPlan.
	Faults *FaultPlan
	// Speculation enables backup attempts for straggling tasks: when a
	// task has run longer than SpeculationRatio × the median completed
	// duration of its phase (and at least SpeculationMinRuntime), one
	// backup attempt launches; the first attempt to commit wins and the
	// loser is killed and its temporaries reclaimed.
	Speculation bool
	// SpeculationRatio is the straggler threshold multiplier; 0 defaults
	// to 2.0.
	SpeculationRatio float64
	// SpeculationMinRuntime is the minimum elapsed time before a task can
	// be speculated; 0 defaults to 5ms.
	SpeculationMinRuntime time.Duration
	// Tracer, when non-nil, records every workflow/job/task/phase as a
	// typed span tree (see internal/trace): per-task scan/map/sort/spill/
	// merge/reduce/DFS-write intervals with record and byte counts,
	// exportable as a Chrome trace_event profile or a plain-text timeline.
	// A nil Tracer is a zero-overhead no-op — the engine skips all
	// fine-grained timing.
	Tracer *trace.Tracer
	// Slots, when non-nil, supersedes MapParallelism/ReduceParallelism:
	// instead of fixed per-run worker pools, every task attempt leases one
	// slot of its kind ("map" or "reduce") from this shared pool for the
	// task's whole lifetime, so concurrent workflows over one DFS divide
	// cluster capacity under the pool's policy. See SlotPool.
	Slots SlotPool
	// Cluster selects the execution substrate. Nil defaults to the
	// in-process LocalCluster (goroutine pools over the engine's DFS,
	// honoring MapParallelism/ReduceParallelism/Slots). A JobRunner cluster
	// takes over whole jobs instead — see internal/cluster for the
	// master/worker RPC implementation.
	Cluster Cluster
}

// validate rejects configurations that would silently misbehave: an
// external merge needs at least two-way fan-in to make progress, a
// negative sort budget would spill on every emitted pair, and negative
// parallelism or attempt budgets would deadlock the worker pools or make
// every task fail before its first attempt. Called (on the
// defaults-applied config) at Run time so the error carries context —
// zeros select defaults, so only genuinely negative values reach here.
func (c EngineConfig) validate() error {
	if c.MapParallelism < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.MapParallelism must be >= 0 (got %d); 0 selects the default", c.MapParallelism)
	}
	if c.ReduceParallelism < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.ReduceParallelism must be >= 0 (got %d); 0 selects the default", c.ReduceParallelism)
	}
	if c.TaskMaxAttempts < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.TaskMaxAttempts must be >= 0 (got %d); 0 selects the default", c.TaskMaxAttempts)
	}
	if c.MergeFactor < 2 {
		return fmt.Errorf("mapreduce: EngineConfig.MergeFactor must be >= 2 (got %d); 0 selects the default", c.MergeFactor)
	}
	if c.SortBufferBytes < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.SortBufferBytes must be >= 0 (got %d); 0 disables spilling", c.SortBufferBytes)
	}
	if c.DefaultReducers < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.DefaultReducers must be >= 0 (got %d); 0 selects the default", c.DefaultReducers)
	}
	if c.SplitRecords < 0 {
		return fmt.Errorf("mapreduce: EngineConfig.SplitRecords must be >= 0 (got %d); 0 selects the default", c.SplitRecords)
	}
	return nil
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MapParallelism == 0 {
		c.MapParallelism = runtime.GOMAXPROCS(0)
	}
	if c.ReduceParallelism == 0 {
		c.ReduceParallelism = runtime.GOMAXPROCS(0)
	}
	if c.DefaultReducers == 0 {
		c.DefaultReducers = 8
	}
	if c.SplitRecords == 0 {
		c.SplitRecords = 8192
	}
	if c.MergeFactor == 0 {
		c.MergeFactor = 10
	}
	if c.TaskMaxAttempts == 0 {
		c.TaskMaxAttempts = 1
	}
	if c.SpeculationRatio == 0 {
		c.SpeculationRatio = 2.0
	}
	if c.SpeculationMinRuntime == 0 {
		c.SpeculationMinRuntime = 5 * time.Millisecond
	}
	return c
}

// Engine executes jobs and workflows against a simulated DFS.
type Engine struct {
	dfs     *hdfs.DFS
	cfg     EngineConfig
	ctx     context.Context
	cluster Cluster
}

// NewEngine returns an engine over the given DFS.
func NewEngine(dfs *hdfs.DFS, cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	cl := cfg.Cluster
	if cl == nil {
		cl = NewLocalCluster(dfs, cfg.MapParallelism, cfg.ReduceParallelism, cfg.Slots)
	}
	return &Engine{dfs: dfs, cfg: cfg, ctx: context.Background(), cluster: cl}
}

// DFS returns the engine's file system.
func (e *Engine) DFS() *hdfs.DFS { return e.dfs }

// WithContext returns a shallow copy of the engine whose runs observe ctx:
// when ctx is cancelled or its deadline passes, every in-flight task attempt
// stops at its next checkpoint, no further attempts or stages launch, slot
// leases are released, and the failing run sweeps its attempt-scoped
// temporaries exactly as any other failed job would — a cancelled query
// leaks zero bytes. The original engine is unchanged, so one resident
// engine can serve many queries each under its own deadline.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	e2 := *e
	e2.ctx = ctx
	return &e2
}

// ctxErr reports the engine context's cancellation cause, or nil while the
// context is live. Engines constructed without WithContext never cancel.
func (e *Engine) ctxErr() error {
	select {
	case <-e.ctx.Done():
		return context.Cause(e.ctx)
	default:
		return nil
	}
}

// wfSeq numbers workflows process-wide so every run — even two runs of the
// same engine over the same DFS — gets a private temp namespace.
var wfSeq atomic.Int64

// newWorkflowID mints the temp-namespace token for one workflow (or one
// standalone job run).
func newWorkflowID() string {
	return fmt.Sprintf("wf-%06d", wfSeq.Add(1))
}

// wfTmpRoot is the temp namespace of one whole workflow; a failed or
// cancelled workflow may sweep the entire prefix.
func wfTmpRoot(wf string) string {
	return "_tmp/" + wf + "/"
}

// tmpRoot is the attempt-scoped temporary namespace of one job within one
// workflow; a failed job sweeps the whole prefix so no attempt can leak
// partial output. Scoping by workflow ID (not just job name) is what lets
// concurrent workflows share a DFS: engines reuse fixed job names
// ("ntga-group", "hive-join0", ...), so two in-flight queries would
// otherwise race on the same attempt paths.
func tmpRoot(wf, job string) string {
	return fmt.Sprintf("_tmp/%s/%s/", wf, job)
}

// tmpPartName is the attempt-private name a task attempt streams its
// output into. Keeping every attempt's bytes under its own name is what
// turns at-least-once execution into exactly-once output: rival attempts
// never touch each other's files, the winner's are promoted atomically by
// rename, and losers' are deleted wholesale.
func tmpPartName(wf, job, kind string, task, attempt int, base string, part int) string {
	return fmt.Sprintf("%s%s-%05d/%d/%s._part-%05d", tmpRoot(wf, job), kind, task, attempt, base, part)
}

// partOut is one output base's attempt-temp part file with the final name
// the commit step promotes it to.
type partOut struct {
	w          *hdfs.Writer
	tmp, final string
}

// streamCollector streams one task attempt's output records straight into
// attempt-private DFS part files as they are collected, so a job that
// overruns cluster capacity fails mid-reduce (hdfs.ErrDiskFull while
// records are produced), not at a commit step afterwards. A job with a Sink
// hands its main-output records to the attempt's SinkAttempt as well (or,
// when the output is sunk, instead). publish renames the temps to their
// final part names and commits the sink attempt; abort deletes the temps,
// and an uncommitted sink attempt is dropped. Like the records, the
// attempt's counters count only if it commits.
type streamCollector struct {
	files  []partOut    // every DFS part file of the attempt
	main   *hdfs.Writer // the main output's, nil when it is sunk
	sink   SinkAttempt  // nil without a Job.Sink
	extras map[string]*hdfs.Writer
	// records and bytes count everything collected; sunkRecords and
	// sunkBytes the part of it that went to the sink alone.
	records, bytes         int64
	sunkRecords, sunkBytes int64
	counters               Counters
	// timed accumulates the wall-clock spent inside DFS appends and sink
	// collects so a traced task can split its fused loop into reduce-vs-write
	// phases; off (the default) when no tracer is configured.
	timed     bool
	writeDur  time.Duration
	committed bool
}

// openParts creates the attempt-private part files for task index i of the
// job: one per output written to the DFS — the main output unless it is
// sunk, and one per declared extra output — and the attempt's sink share.
func (e *Engine) openParts(job *Job, ac *attemptCtx, i int, timed bool) (*streamCollector, error) {
	col := &streamCollector{timed: timed}
	if job.Sink != nil {
		col.sink = job.Sink.Attempt()
	}
	for _, base := range job.fileBases() {
		tmp := tmpPartName(ac.js.wf, job.Name, ac.kind, ac.task, ac.attempt, base, i)
		w, err := e.dfs.Create(tmp)
		if err != nil {
			col.abort(ac.js)
			return nil, fmt.Errorf("creating output %s: %w", base, err)
		}
		col.files = append(col.files, partOut{w: w, tmp: tmp, final: PartName(base, i)})
		if base == job.Output {
			col.main = w
			continue
		}
		if col.extras == nil {
			col.extras = make(map[string]*hdfs.Writer, len(job.ExtraOutputs))
		}
		col.extras[base] = w
	}
	return col, nil
}

// Inc implements Counter.
func (c *streamCollector) Inc(name string, delta int64) { c.counters.Inc(name, delta) }

func (c *streamCollector) Collect(record []byte) error {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	var err error
	if c.main != nil {
		err = c.main.Append(record)
	}
	if err == nil && c.sink != nil {
		err = c.sink.Collect(record)
	}
	if c.timed {
		c.writeDur += time.Since(t0)
	}
	if err != nil {
		return err
	}
	c.records++
	c.bytes += int64(len(record))
	if c.main == nil {
		c.sunkRecords++
		c.sunkBytes += int64(len(record))
	}
	return nil
}

func (c *streamCollector) CollectTo(output string, record []byte) error {
	w, ok := c.extras[output]
	if !ok {
		return fmt.Errorf("mapreduce: CollectTo(%q): not a declared extra output", output)
	}
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	err := w.Append(record)
	if c.timed {
		c.writeDur += time.Since(t0)
	}
	if err != nil {
		return err
	}
	c.records++
	c.bytes += int64(len(record))
	return nil
}

// written sums the records and bytes the attempt wrote: those appended
// through the part writers (hdfs-attributed, so a failed Append that
// partially streamed is still accounted to the task's write span) plus those
// handed to the sink alone.
func (c *streamCollector) written() (records, bytes int64) {
	r, b := c.sunkRecords, c.sunkBytes
	for _, f := range c.files {
		wr, wb := f.w.Written()
		r += wr
		b += wb
	}
	return r, b
}

// publish seals every part file and, if the attempt wins its task's commit
// claim, atomically promotes the temps to their final part names and commits
// the sink attempt. On any error — errLostRace included — the deferred
// abortUnlessCommitted reclaims the attempt's files.
func (c *streamCollector) publish(ac *attemptCtx) error {
	for _, f := range c.files {
		if err := f.w.Close(); err != nil {
			return err
		}
	}
	if !ac.claim() {
		return errLostRace
	}
	for _, f := range c.files {
		if err := ac.e.dfs.Rename(f.tmp, f.final); err != nil {
			return fmt.Errorf("committing %s: %w", f.final, err)
		}
	}
	if c.sink != nil {
		c.sink.Commit(ac.task)
	}
	c.committed = true
	return nil
}

// abort discards every attempt-private part file written by this task
// attempt, accounting the reclaimed bytes to the job's recovery counters.
func (c *streamCollector) abort(js *jobRunState) {
	var reclaimed int64
	for _, f := range c.files {
		if f.w != nil {
			_, b := f.w.Written()
			reclaimed += b
			f.w.Abort()
		}
	}
	js.reclaim(reclaimed)
}

// abortUnlessCommitted is the attempt body's deferred cleanup.
func (c *streamCollector) abortUnlessCommitted(js *jobRunState) {
	if !c.committed {
		c.abort(js)
	}
}

// errInjectedFailure marks a fault-injection task failure.
var errInjectedFailure = errors.New("mapreduce: injected task failure")

// Run executes one job to completion. On failure the job's output files
// (including any committed part files) are removed and the returned
// metrics carry the error. With a Tracer configured the job becomes a root
// span (jobs executed via RunWorkflow nest under the workflow span
// instead).
func (e *Engine) Run(job *Job) (JobMetrics, error) {
	jsp := e.cfg.Tracer.Start(trace.KindJob, job.Name)
	defer jsp.Finish()
	return e.run(job, jsp, newWorkflowID())
}

// run is the body of Run with an explicit (possibly nil) parent job span
// and the workflow ID scoping this job's temp namespace.
func (e *Engine) run(job *Job, jsp *trace.Span, wf string) (JobMetrics, error) {
	start := time.Now()
	m := JobMetrics{Job: job.Name, MapOnly: job.ShuffleFree(), Sunk: job.Sunk()}
	js := newJobRunState(e, wf, job.Name)
	nParts := 0                 // part files per output base once tasks are planned
	var emitters []*taskEmitter // committed map winners (set once the map phase plans)
	fail := func(err error) (JobMetrics, error) {
		m.Failed = true
		m.Err = err.Error()
		RemoveOutputs(e.dfs, job, nParts)
		// A dead job's committed map outputs are garbage too: the spill runs
		// its winning map attempts parked on local disk will never be merged,
		// so tearing them down is reclamation (failed attempts already
		// accounted their own spills; emitters holds only claim winners).
		for _, te := range emitters {
			if te != nil {
				js.reclaim(te.spilledBytes)
			}
		}
		e.sweepTemps(wf, job.Name, js)
		js.fold(&m)
		m.Duration = time.Since(start)
		return m, fmt.Errorf("job %s: %w", job.Name, err)
	}
	var (
		mapDurs, reduceDurs []time.Duration
		reduces             []ReduceStats // per partition, from the winning attempts
		outs                []taskOut     // per output task, from the winning attempts
	)
	// finish is the success exit once every task has published its part
	// files: fold the task profile and the output tasks' counts, and splice
	// the parts into the outputs.
	finish := func() (JobMetrics, error) {
		m.FoldTaskStats(mapDurs, reduceDurs, reduces)
		for _, o := range outs {
			m.ReduceOutputRecords += o.records
			m.ReduceOutputBytes += o.bytes
			m.Counters.Add(o.counters)
		}
		csp := jsp.Child(trace.KindCommit, "commit", len(mapDurs)+len(reduces))
		err := CommitParts(e.dfs, job, nParts)
		csp.Finish()
		if err != nil {
			return fail(err)
		}
		js.fold(&m)
		jsp.SetIO(m.ReduceOutputRecords, m.ReduceOutputBytes)
		m.Duration = time.Since(start)
		return m, nil
	}
	if err := e.cfg.validate(); err != nil {
		return fail(err)
	}
	if err := job.validate(); err != nil {
		return fail(err)
	}
	if err := e.ctxErr(); err != nil {
		return fail(err)
	}

	// A JobRunner cluster takes the validated job whole: split planning,
	// task scheduling, shuffle movement, and part commits happen on the
	// other side of the seam, which also owns output cleanup on failure.
	if jr, ok := e.cluster.(JobRunner); ok {
		rm, err := jr.RunJob(e.ctx, jsp, job, e.cfg)
		rm.Job = job.Name
		rm.MapOnly, rm.Sunk = job.ShuffleFree(), job.Sunk()
		rm.Duration = time.Since(start)
		if err != nil {
			rm.Failed = true
			rm.Err = err.Error()
			return rm, fmt.Errorf("job %s: %w", job.Name, err)
		}
		jsp.SetIO(rm.ReduceOutputRecords, rm.ReduceOutputBytes)
		return rm, nil
	}

	// Plan map splits from file metadata; the records themselves are
	// streamed by the map tasks.
	splits, err := PlanSplits(e.dfs, job, e.cfg.SplitRecords, &m)
	if err != nil {
		return fail(err)
	}
	mapDurs = make([]time.Duration, len(splits))

	if job.ShuffleFree() {
		nParts = len(splits)
		outs = make([]taskOut, len(splits))
		if err := e.dispatch("map", len(splits), func(i int) error {
			return e.runTask(js, "map", i, mapDurs, nil, func(ac *attemptCtx) error {
				return e.mapOnlyAttempt(job, jsp, splits[i], ac, &outs[i])
			})
		}); err != nil {
			return fail(err)
		}
		return finish()
	}

	nReducers := job.NumReducers
	if nReducers == 0 {
		nReducers = e.cfg.DefaultReducers
	}

	// ---- Map phase ----
	// Each task streams its split through a spilling emitter; sealed
	// emitters hold the sorted in-memory segments and spill runs the
	// reduce phase merges. All spill runs are released when Run returns.
	emitters = make([]*taskEmitter, len(splits))
	defer func() {
		for _, te := range emitters {
			if te != nil {
				te.discard()
			}
		}
	}()
	if err := e.dispatch("map", len(splits), func(i int) error {
		return e.runTask(js, "map", i, mapDurs, nil, func(ac *attemptCtx) error {
			te, err := e.mapAttempt(job, jsp, splits[i], nReducers, ac)
			if err != nil {
				return err
			}
			if !ac.claim() {
				js.reclaim(te.spilledBytes)
				te.discard()
				return errLostRace
			}
			emitters[i] = te
			return nil
		})
	}); err != nil {
		return fail(err)
	}
	// A job that dies in its reduce phase still reports its map profile.
	m.FoldTaskStats(mapDurs, nil, nil)
	for _, te := range emitters {
		m.MapOutputRecords += te.records
		m.MapOutputBytes += te.bytes
		m.SpilledRecords += te.spilledRecords
		m.SpilledBytes += te.spilledBytes
		if te.peakBuffered > m.PeakSortBufferBytes {
			m.PeakSortBufferBytes = te.peakBuffered
		}
		m.Counters.Add(te.counters)
	}

	// ---- Shuffle-merge + reduce phase ----
	// Each reduce task merges its partition's sorted segments (in-memory
	// and spilled) into one stream, groups by key, and feeds the reducer,
	// streaming output records into its attempt-private part files.
	nParts = nReducers
	var spilledRecs, spilledBytes, mergePasses atomic.Int64
	reduceDurs = make([]time.Duration, nReducers)
	reduces = make([]ReduceStats, nReducers)
	outs = make([]taskOut, nReducers)

	// Map-output recovery: a node death loses the spill runs pinned to it.
	// A reduce attempt that trips over a lost run fails with a wrapped
	// hdfs.ErrNodeLost; before its retry, recoverMaps re-executes every map
	// task whose output died, on a live node, with fresh attempt numbers —
	// Hadoop's "map output lost, re-running map task" path. The task's
	// counts were folded from its first winner above, so the re-execution
	// replaces its output without counting again. emMu guards the emitters
	// slice against reduce attempts reading it concurrently.
	var emMu sync.RWMutex
	recNext := make([]int, len(splits))
	for i := range recNext {
		recNext[i] = e.cfg.TaskMaxAttempts
	}
	recoverMaps := func() error {
		emMu.Lock()
		defer emMu.Unlock()
		for i, te := range emitters {
			if te == nil || !te.lost() {
				continue
			}
			te.discard()
			var lastErr error
			recovered := false
			for r := 0; r < e.cfg.TaskMaxAttempts; r++ {
				a := recNext[i]
				recNext[i]++
				atomic.AddInt64(&js.taskRetries, 1)
				ac := &attemptCtx{
					e: e, js: js, ctl: newTaskCtl(), kind: "map", task: i,
					attempt: a, node: e.taskNode(i, a), killed: make(chan struct{}),
				}
				nte, err := e.mapAttempt(job, jsp, splits[i], nReducers, ac)
				if err != nil {
					lastErr = err
					continue
				}
				emitters[i] = nte
				atomic.AddInt64(&js.mapRecoveries, 1)
				recovered = true
				break
			}
			if !recovered {
				return fmt.Errorf("recovering lost map output for task %d: %w", i, lastErr)
			}
		}
		return nil
	}

	if err := e.dispatch("reduce", nReducers, func(p int) error {
		return e.runTask(js, "reduce", p, reduceDurs, recoverMaps, func(ac *attemptCtx) error {
			tsp := jsp.ChildTask("reduce", len(splits)+p, p, ac.node, ac.attempt)
			defer tsp.Finish()
			if err := ac.checkpoint("reduce"); err != nil {
				return err
			}
			var sources []kvSource
			var runSrcs []*runSource
			var lostErr error
			emMu.RLock()
			for _, te := range emitters {
				if len(te.parts[p]) > 0 {
					sources = append(sources, &memSource{kvs: te.parts[p]})
				}
				for _, run := range te.runs {
					if seg := run.segs[p]; seg.records > 0 {
						if run.spill.Lost() {
							lostErr = fmt.Errorf("reduce partition %d: map output run lost: %w", p, hdfs.ErrNodeLost)
							break
						}
						runSrcs = append(runSrcs, newRunSource(run.spill, seg))
					}
				}
				if lostErr != nil {
					break
				}
			}
			emMu.RUnlock()
			if lostErr != nil {
				return lostErr
			}
			// Intermediate merges are attempt-local: their temporary runs
			// are released when this attempt finishes, success or not.
			var localPasses, localSpilledRecs, localSpilledBytes int64
			var temps []*spillRun
			defer func() {
				for _, r := range temps {
					r.release()
				}
			}()
			if len(runSrcs) > e.cfg.MergeFactor {
				var err error
				runSrcs, temps, err = e.mergeRuns(runSrcs, e.cfg.MergeFactor, tsp, ac,
					&localPasses, &localSpilledRecs, &localSpilledBytes)
				if err != nil {
					return fmt.Errorf("reduce partition %d merge: %w", p, err)
				}
			}
			if len(runSrcs) > 0 {
				localPasses++ // the final merge reads at least one on-disk run
			}
			for _, rs := range runSrcs {
				sources = append(sources, rs)
			}
			col, err := e.openParts(job, ac, p, tsp != nil)
			if err != nil {
				return err
			}
			defer col.abortUnlessCommitted(js)
			st, err := runReduceTask(job, p, sources, col, ac.hooks(tsp))
			if err != nil {
				return err
			}
			if err := col.publish(ac); err != nil {
				return fmt.Errorf("reduce partition %d: %w", p, err)
			}
			if tsp != nil {
				// The reduce loop fuses reducing with streaming the output;
				// the collector timed its DFS appends so the two can be split.
				wRecs, wBytes := col.written()
				tsp.AddPhase(trace.KindReduce, "reduce", st.LoopDur-col.writeDur, st.InPairs, st.InBytes)
				tsp.AddPhase(trace.KindWrite, "write", col.writeDur, wRecs, wBytes)
				tsp.SetIO(wRecs, wBytes)
			}
			outs[p] = col.out()
			spilledRecs.Add(localSpilledRecs)
			spilledBytes.Add(localSpilledBytes)
			mergePasses.Add(localPasses)
			reduces[p] = st
			return nil
		})
	}); err != nil {
		return fail(err)
	}
	m.SpilledRecords += spilledRecs.Load()
	m.SpilledBytes += spilledBytes.Load()
	m.MergePasses = mergePasses.Load()
	return finish()
}

// taskOut is what one output task's winning attempt contributes to the job's
// metrics: the records and bytes it wrote to the DFS, and its counters.
type taskOut struct {
	records, bytes int64
	counters       Counters
}

// out is the committed attempt's taskOut: its sunk records are the
// caller's, not the file system's.
func (c *streamCollector) out() taskOut {
	return taskOut{c.records - c.sunkRecords, c.bytes - c.sunkBytes, c.counters}
}

// mapAttempt is one map task attempt of a shuffle job: stream the split
// through a spilling emitter pinned to the attempt's node, with the attempt's
// fault checkpoints threaded through the body and every spill. On error the
// attempt's spill runs are discarded before returning, so a retry starts
// clean. The caller publishes the returned emitter only after winning the
// task's commit claim.
func (e *Engine) mapAttempt(job *Job, jsp *trace.Span, sp Split, nReducers int, ac *attemptCtx) (te *taskEmitter, err error) {
	tsp := jsp.ChildTask("map", ac.task, ac.task, ac.node, ac.attempt)
	defer tsp.Finish()
	h := ac.hooks(tsp)
	te = newTaskEmitter(e.dfs, job, nReducers, e.cfg.SortBufferBytes, ac.node, h)
	defer func() {
		if err != nil {
			ac.js.reclaim(te.spilledBytes)
			te.discard()
		}
	}()
	r, err := e.dfs.OpenRange(sp.Input, sp.Off, sp.N)
	if err != nil {
		return te, fmt.Errorf("map task %d (%s): %w", ac.task, sp.Input, err)
	}
	return te, runMapTask(job, ac.task, sp.Input, r, te, h)
}

// mapOnlyAttempt is one task attempt of a shuffle-free job: fetch the side
// input, stream the split through the shuffle-free body into attempt-private
// part files, and publish them (and its counts, into out) if the attempt wins
// the task's claim.
func (e *Engine) mapOnlyAttempt(job *Job, jsp *trace.Span, sp Split, ac *attemptCtx, out *taskOut) error {
	i := ac.task
	tsp := jsp.ChildTask("map", i, i, ac.node, ac.attempt)
	defer tsp.Finish()
	var side [][]byte
	if i < len(job.TaskSideInputs) && job.TaskSideInputs[i] != "" {
		var err error
		if side, err = e.dfs.ReadAll(job.TaskSideInputs[i]); err != nil {
			return fmt.Errorf("map task %d side input %s: %w", i, job.TaskSideInputs[i], err)
		}
	}
	col, err := e.openParts(job, ac, i, tsp != nil)
	if err != nil {
		return err
	}
	defer col.abortUnlessCommitted(ac.js)
	r, err := e.dfs.OpenRange(sp.Input, sp.Off, sp.N)
	if err != nil {
		return fmt.Errorf("map task %d (%s): %w", i, sp.Input, err)
	}
	st, err := RunMapOnlyTask(job, i, sp.Input, side, r, col, ac.hooks(tsp))
	if err != nil {
		return err
	}
	if err := col.publish(ac); err != nil {
		return fmt.Errorf("map task %d (%s): %w", i, sp.Input, err)
	}
	if tsp != nil {
		// As in the shuffle path, with the collector's append time carved
		// out of the map phase as a DFS-write phase.
		wRecs, wBytes := col.written()
		tsp.AddPhase(trace.KindScan, "scan", st.ScanDur, st.Records, st.Bytes)
		tsp.AddPhase(trace.KindMap, "map", st.MapDur-col.writeDur, col.records, col.bytes)
		tsp.AddPhase(trace.KindWrite, "write", col.writeDur, wRecs, wBytes)
		tsp.SetIO(wRecs, wBytes)
	}
	*out = col.out()
	return nil
}

// sweepTemps deletes every attempt-scoped temporary of a failed job (the
// whole "_tmp/<wf>/<job>/" prefix), accounting the reclaimed bytes. Absent
// files are benign — a rival cleanup may have raced us here (hdfs.ErrNotExist).
func (e *Engine) sweepTemps(wf, job string, js *jobRunState) {
	for _, name := range e.dfs.ListPrefix(tmpRoot(wf, job)) {
		size, err := e.dfs.FileSize(name)
		if err != nil {
			continue // already gone
		}
		if err := e.dfs.Delete(name); err != nil {
			if errors.Is(err, hdfs.ErrNotExist) {
				continue
			}
			panic(err) // Delete only errors with ErrNotExist
		}
		js.reclaim(size)
	}
}

// fold adds the run's fault-tolerance counters into the job metrics. It is
// called on both the success and failure paths, so even a job that exhausted
// its attempt budget reports the retries it burned getting there.
func (js *jobRunState) fold(m *JobMetrics) {
	m.TaskRetries += atomic.LoadInt64(&js.taskRetries)
	m.SpeculativeLaunched += atomic.LoadInt64(&js.specLaunched)
	m.SpeculativeWins += atomic.LoadInt64(&js.specWins)
	m.KilledAttempts += atomic.LoadInt64(&js.killedAttempts)
	m.NodeKills += atomic.LoadInt64(&js.nodeKills)
	m.MapOutputRecoveries += atomic.LoadInt64(&js.mapRecoveries)
	m.TempBytesReclaimed += atomic.LoadInt64(&js.tempBytesReclaimed)
}

// Stage is a set of jobs with no mutual dependencies; the workflow runner
// executes a stage's jobs concurrently (Pig submits independent MR jobs in
// parallel; Hive runs them serially — engines model that by using
// one-job stages).
type Stage []*Job

// RunWorkflow executes stages sequentially, jobs within a stage
// concurrently. On the first failed job the workflow stops after the
// current stage completes, deletes the outputs of every job that had
// succeeded (so repeated capacity-limited runs do not leak simulated
// disk), and reports the failure. Metrics for every executed job are
// returned in submission order.
func (e *Engine) RunWorkflow(stages []Stage) (WorkflowMetrics, error) {
	return e.RunWorkflowNamed("workflow", stages)
}

// RunWorkflowNamed is RunWorkflow with an explicit workflow name: with a
// Tracer configured the whole run becomes one workflow span (named after the
// engine or query that built the plan) with every job span nested under it,
// in submission order.
func (e *Engine) RunWorkflowNamed(name string, stages []Stage) (WorkflowMetrics, error) {
	wsp := e.cfg.Tracer.Start(trace.KindWorkflow, name)
	defer wsp.Finish()
	wfid := newWorkflowID()
	start := time.Now()
	var wf WorkflowMetrics
	for _, st := range stages {
		wf.Cycles += len(st)
	}
	var done []*Job // successfully completed jobs, for failure cleanup
	// abort deletes the outputs of every completed job and sweeps any
	// temporary still under the workflow's namespace (belt-and-braces: job
	// failure paths sweep their own prefix, so this is normally a no-op).
	abort := func(failedJob string, err error) (WorkflowMetrics, error) {
		wf.Failed = true
		wf.FailedJob = failedJob
		wf.Err = err.Error()
		wf.Duration = time.Since(start)
		for _, job := range done {
			e.dfs.DeleteIfExists(job.Output)
			for _, eo := range job.ExtraOutputs {
				e.dfs.DeleteIfExists(eo)
			}
		}
		e.dfs.DeletePrefix(wfTmpRoot(wfid))
		return wf, err
	}
	for _, st := range stages {
		// A cancelled workflow stops between stages too — without this, a
		// deadline that fires while no task is at a checkpoint would still
		// launch the next stage's jobs.
		if err := e.ctxErr(); err != nil {
			return abort("", err)
		}
		jms := make([]JobMetrics, len(st))
		errs := make([]error, len(st))
		order := len(wf.Jobs) // submission-order base for this stage's job spans
		var wg sync.WaitGroup
		for i, job := range st {
			wg.Add(1)
			go func(i int, job *Job) {
				defer wg.Done()
				jsp := wsp.Child(trace.KindJob, job.Name, order+i)
				defer jsp.Finish()
				jms[i], errs[i] = e.run(job, jsp, wfid)
			}(i, job)
		}
		wg.Wait()
		wf.Jobs = append(wf.Jobs, jms...)
		for i := range st {
			if errs[i] == nil {
				done = append(done, st[i])
			}
		}
		for i, err := range errs {
			if err != nil {
				return abort(st[i].Name, err)
			}
		}
	}
	wf.Duration = time.Since(start)
	return wf, nil
}

// CountScansOf reports how many jobs in the plan scan the named file — the
// paper's "number of full scans of the triple relation" metric (Figure 3).
func CountScansOf(stages []Stage, name string) int {
	n := 0
	for _, st := range stages {
		for _, job := range st {
			for _, in := range job.Inputs {
				if in == name {
					n++
					break
				}
			}
		}
	}
	return n
}

// ErrIsDiskFull reports whether err is rooted in DFS capacity exhaustion.
func ErrIsDiskFull(err error) bool { return errors.Is(err, hdfs.ErrDiskFull) }
