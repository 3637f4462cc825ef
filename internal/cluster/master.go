package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"ntga/internal/engine"
	"ntga/internal/engines"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/trace"
)

// MasterConfig tunes the coordinator.
type MasterConfig struct {
	// Nodes/Replication shape the master-resident simulated DFS.
	Nodes       int
	Replication int
	// Reducers and SplitRecords are the per-query defaults (a RunArgs can
	// override both).
	Reducers     int
	SplitRecords int
	// PartitionBuckets, when > 0, makes the master build the partitioned
	// triple layout at boot (a one-time load job over its own DFS) and run
	// queries against it by default (RunArgs.NoPartition opts out per query).
	PartitionBuckets int
	// LeaseTimeout bounds one task attempt: a lease not reported back in
	// time is re-queued (the worker may still be alive but stuck).
	LeaseTimeout time.Duration
	// HeartbeatTimeout declares a silent worker dead; its leases and its
	// committed map outputs for unfinished jobs are re-queued. The master
	// checks liveness and lease deadlines every
	// min(HeartbeatTimeout, LeaseTimeout)/16.
	HeartbeatTimeout time.Duration
	// HeartbeatEvery/LeaseEvery are advertised to workers at registration:
	// how often to ping, and how long to idle between empty lease polls.
	HeartbeatEvery time.Duration
	LeaseEvery     time.Duration
	// MaxTaskAttempts is the per-task attempt budget; a task whose budget
	// is spent fails its job.
	MaxTaskAttempts int
	// Tracer, when non-nil, records per-lease task spans under each job's
	// span, with the worker ID in the node column.
	Tracer *trace.Tracer
	// Transport carries all cluster RPC; nil defaults to TCP.
	Transport Transport
}

func (c MasterConfig) withDefaults() MasterConfig {
	c.Nodes = cmp.Or(c.Nodes, 8)
	c.Replication = cmp.Or(c.Replication, 1)
	c.Reducers = cmp.Or(c.Reducers, 8)
	c.SplitRecords = cmp.Or(c.SplitRecords, 8192)
	c.LeaseTimeout = cmp.Or(c.LeaseTimeout, 10*time.Second)
	c.HeartbeatTimeout = cmp.Or(c.HeartbeatTimeout, 2*time.Second)
	c.HeartbeatEvery = cmp.Or(c.HeartbeatEvery, 500*time.Millisecond)
	c.LeaseEvery = cmp.Or(c.LeaseEvery, 25*time.Millisecond)
	c.MaxTaskAttempts = cmp.Or(c.MaxTaskAttempts, 4)
	if c.Transport == nil {
		c.Transport = TCP()
	}
	return c
}

// Master is the coordinator: it owns the DFS and the dataset dictionary,
// compiles and plans queries, and leases task attempts to workers. It is
// the shell around the scheduling core (sched): each RPC handler locks,
// stamps the time, hands the event to the core and applies the actions it
// returns — lease spans, part-file writes, job wake-ups.
type Master struct {
	cfg   MasterConfig
	dfs   *hdfs.DFS
	dict  *rdf.Dict
	input string

	// wh owns the versioned dataset: every query plans from one View of
	// it, and Register and Sync read the dictionary and its version from it
	// in one step.
	wh *ingest.Warehouse

	ln     net.Listener
	conns  *connSet
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	s  *sched
	// runs holds each scheduled job's span and wake-up channel, spans each
	// open lease's task span.
	runs  map[*jobState]*jobRun
	spans map[*taskState]*trace.Span
}

// jobRun is the shell's side of one scheduled job.
type jobRun struct {
	jsp   *trace.Span
	done  chan struct{}    // closed when the core settles the job
	parts *mapreduce.Parts // the part files written for winning reports
}

// NewMaster builds a coordinator over the given graph: a warehouse over a
// fresh master-resident DFS holds the triples, the statistics catalog the
// "auto" engine advisor consults, and — with PartitionBuckets — the
// bucketed layout, built by an in-process MR job at boot (no worker takes
// part). The boot's epoch, which workers quote with their ID, is its start
// time.
func NewMaster(cfg MasterConfig, g *rdf.Graph) (*Master, error) {
	cfg = cfg.withDefaults()
	dfs := hdfs.New(hdfs.Config{Nodes: cfg.Nodes, Replication: cfg.Replication})
	const input = "data/triples"
	mr := mapreduce.NewEngine(dfs, mapreduce.EngineConfig{
		DefaultReducers: cfg.Reducers, SplitRecords: cfg.SplitRecords,
	})
	wh, err := ingest.Open(mr, input, g, "part/T", cfg.PartitionBuckets)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Master{
		cfg:    cfg,
		dfs:    dfs,
		dict:   g.Dict,
		input:  input,
		wh:     wh,
		ctx:    ctx,
		cancel: cancel,
		s:      &sched{cfg: cfg, epoch: time.Now().UnixNano()},
		runs:   make(map[*jobState]*jobRun),
		spans:  make(map[*taskState]*trace.Span),
	}, nil
}

// Serve starts the master's RPC endpoint and its liveness ticker. It
// returns once listening; Addr reports the bound address.
func (m *Master) Serve(addr string) error {
	ln, err := m.cfg.Transport.Listen(addr)
	if err != nil {
		return err
	}
	m.ln = ln
	m.conns = newConnSet()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &masterRPC{m}); err != nil {
		ln.Close()
		return err
	}
	go serveRPCTracked(srv, ln, m.conns)
	go m.ticker()
	return nil
}

// Addr is the bound RPC address (valid after Serve).
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close stops the master like a process death: in-flight jobs fail, the
// ticker exits, the listener closes, and every accepted connection is
// severed — workers and front-ends see transport errors immediately instead
// of talking to a ghost over surviving pipes.
func (m *Master) Close() {
	m.cancel()
	if m.ln != nil {
		m.ln.Close()
	}
	if m.conns != nil {
		m.conns.closeAll()
	}
}

// DFS exposes the master-resident file system (status/metrics surfaces).
func (m *Master) DFS() *hdfs.DFS { return m.dfs }

// Warehouse exposes the master's dataset, so a server hosting the master
// plans, caches, ingests and compacts over the one copy the fleet reads.
func (m *Master) Warehouse() *ingest.Warehouse { return m.wh }

// ticker feeds the core a tick sixteen times per shortest timeout.
func (m *Master) ticker() {
	t := time.NewTicker(min(m.cfg.HeartbeatTimeout, m.cfg.LeaseTimeout) / 16)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.mu.Lock()
			m.apply(m.s.tick(time.Now()))
			m.mu.Unlock()
		}
	}
}

// apply carries out the core's actions in order (m.mu held).
func (m *Master) apply(acts []action) {
	for _, a := range acts {
		switch a.op {
		case actOpen:
			kind, group := "map", a.task.idx
			if a.task.reduce {
				kind, group = "reduce", len(a.job.maps)+a.task.idx
			}
			if sp := m.runs[a.job].jsp.ChildTask(kind, group, a.task.idx, a.lease.worker, a.lease.attempt); sp != nil {
				m.spans[a.task] = sp
			}
		case actClose:
			m.spans[a.task].Finish()
			delete(m.spans, a.task)
		case actWrite:
			// The distributed stand-in for the local attempt-commit rename:
			// every record is written here, so DFS capacity failures surface
			// exactly like a local mid-reduce disk-full.
			var err error
			for _, p := range a.parts {
				if err = m.dfs.WriteFile(p.name, p.recs); err != nil {
					err = fmt.Errorf("committing %s: %w", p.name, err)
					break
				}
				m.runs[a.job].parts.Publish(p.base, a.task.idx, p.name)
			}
			m.apply(m.s.committed(a, err))
		case actSettle:
			close(m.runs[a.job].done)
		}
	}
}

// ---- RPC surface ----

// masterRPC is the net/rpc receiver; it keeps the RPC method set separate
// from the Master's own API.
type masterRPC struct {
	m *Master
}

func (r *masterRPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	m := r.m
	if args.KnownVersion != "" && !m.wh.Served(args.KnownVersion) {
		// The worker's dictionary was built against a dataset this master
		// has never served — not even as an ancestor version. Its IDs would
		// silently mean different terms; refuse loudly.
		return fmt.Errorf("cluster: worker holds dataset %s, which is not in this master's version lineage (different dataset)", args.KnownVersion)
	}
	m.mu.Lock()
	reply.Worker = m.s.register(time.Now(), args)
	m.mu.Unlock()
	reply.Epoch = m.s.epoch
	reply.Terms, reply.DatasetVersion = m.wh.Terms(0)
	reply.Input = m.input
	reply.HeartbeatEvery = m.cfg.HeartbeatEvery
	reply.LeaseEvery = m.cfg.LeaseEvery
	return nil
}

func (r *masterRPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	m := r.m
	m.mu.Lock()
	live, err := m.s.heartbeat(time.Now(), args)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	reply.LiveQueries = live
	reply.DatasetVersion = m.wh.View().Version
	return nil
}

// Sync ships the dictionary terms from index Have onward plus their
// dataset version — how a worker catches up after ingests minted terms it
// has never seen. Warehouse.Terms reads both in one step, as in Register.
func (r *masterRPC) Sync(args *SyncArgs, reply *SyncReply) error {
	reply.Terms, reply.DatasetVersion = r.m.wh.Terms(args.Have)
	reply.From = args.Have
	return nil
}

func (r *masterRPC) Lease(args *LeaseArgs, reply *LeaseReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	task, acts, err := m.s.lease(time.Now(), args)
	m.apply(acts)
	reply.Task = task
	return err
}

func (r *masterRPC) Report(args *ReportArgs, reply *ReportReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apply(m.s.report(args))
	return nil
}

func (r *masterRPC) ReadRange(args *ReadRangeArgs, reply *ReadRangeReply) error {
	recs, err := r.m.dfs.ReadRange(args.Name, args.Off, args.N)
	if err != nil {
		return err
	}
	reply.Records = recs
	return nil
}

func (r *masterRPC) Run(args *RunArgs, reply *RunReply) error {
	rep, err := r.m.RunQuery(r.m.ctx, args)
	if err != nil {
		return err
	}
	*reply = *rep
	return nil
}

// Status snapshots the cluster.
func (m *Master) Status() StatusReply {
	ds := m.wh.View()
	m.mu.Lock()
	st := m.s.status(time.Now())
	m.mu.Unlock()
	st.Triples, st.DatasetVersion = ds.Triples, ds.Version
	return st
}

// ---- query execution ----

// remoteCluster is the mapreduce.JobRunner the master plugs into its own
// engine: the engine does all planning and workflow orchestration, and
// every validated job lands in runJob to be scheduled across the workers.
type remoteCluster struct {
	m *Master
	q *queryState
}

func (rc *remoteCluster) RunJob(ctx context.Context, jsp *trace.Span, job *mapreduce.Job, cfg mapreduce.EngineConfig) (mapreduce.JobMetrics, error) {
	return rc.m.runJob(ctx, rc.q, jsp, job, cfg)
}

// runJob schedules one job: plan splits from DFS metadata, enqueue the
// job's tasks for the lease loop, wait for the reports to settle it, then
// splice the committed part files into the job outputs and hand a sink its
// tasks' main output. On failure every written part and output base is
// removed — the JobRunner cleanup contract. Planning, the per-task profile
// and the splice are the local engine's own.
func (m *Master) runJob(ctx context.Context, q *queryState, jsp *trace.Span, job *mapreduce.Job, cfg mapreduce.EngineConfig) (mapreduce.JobMetrics, error) {
	var jm mapreduce.JobMetrics
	splits, err := mapreduce.PlanSplits(m.dfs, job, cfg.SplitRecords, &jm)
	if err != nil {
		return jm, err
	}
	run := &jobRun{jsp: jsp, done: make(chan struct{})}
	m.mu.Lock()
	js := m.s.addJob(q, job, splits, cfg.DefaultReducers)
	run.parts = mapreduce.NewParts(job, len(js.outTasks()))
	m.runs[js] = run
	m.mu.Unlock()

	var cause error
	select {
	case <-run.done:
	case <-ctx.Done():
		cause = context.Cause(ctx)
	case <-m.ctx.Done():
		cause = fmt.Errorf("cluster: master shutting down")
	}

	m.mu.Lock()
	if cause != nil {
		m.apply(m.s.settle(js, cause, nil))
	}
	err = js.err
	sunk := js.fold(&jm)
	m.s.dropJob(js)
	delete(m.runs, js)
	m.mu.Unlock()

	if err == nil {
		err = run.parts.Commit(m.dfs)
	}
	if err == nil && job.Sink != nil {
		err = feedSink(job.Sink, sunk)
	}
	if err != nil {
		run.parts.Remove(m.dfs)
	}
	return jm, err
}

// feedSink hands each task's committed main-output records to the job's
// sink, in task order: the winning reports are the only attempts the master
// ever sees, so each task is one attempt that commits.
func feedSink(sink mapreduce.Sink, tasks [][][]byte) error {
	for i, recs := range tasks {
		a := sink.Attempt()
		for _, rec := range recs {
			if err := a.Collect(rec); err != nil {
				return fmt.Errorf("task %d output: %w", i, err)
			}
		}
		a.Commit(i)
	}
	return nil
}

// RunQuery compiles, plans, and executes one query across the cluster
// (Execute) for a client of the Run RPC, and renders its rows.
func (m *Master) RunQuery(ctx context.Context, args *RunArgs) (*RunReply, error) {
	if args.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(args.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	q, err := query.Parse(args.Query, m.dict)
	if err != nil {
		return nil, err
	}
	engName := args.Engine
	if engName == "" {
		engName = "ntga-lazy"
	}
	reducers := args.Reducers
	if reducers == 0 {
		reducers = m.cfg.Reducers
	}
	// One consistent dataset snapshot per query: catalog, base generation
	// and delta chain together. The files it names are immutable
	// (compaction retains old generations), so a query admitted here
	// finishes on its pinned version even if an ingest lands mid-run.
	ds := m.wh.View()
	// The compiled join order runs unchanged: the master never searches.
	choice, _, _, err := engines.Choose(ds.Catalog, q, engName, args.PhiM, reducers, false)
	if err != nil {
		return nil, err
	}
	src := ds.Source
	if args.NoPartition {
		src.Part = nil
	}
	splitRecords := args.SplitRecords
	if splitRecords == 0 {
		splitRecords = m.cfg.SplitRecords
	}
	res, err := m.Execute(ctx, args.Query, q, choice, src, mapreduce.EngineConfig{
		DefaultReducers: reducers,
		SplitRecords:    splitRecords,
		Tracer:          m.cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	reply := &RunReply{
		Engine:        res.Engine,
		IsCount:       res.IsCount,
		Count:         res.Count,
		Rows:          res.Rows,
		Counters:      res.Counters,
		OutputRecords: res.OutputRecords,
		OutputBytes:   res.OutputBytes,
		PeakDFSUsed:   res.PeakDFSUsed,
		Workflow:      res.Workflow,
	}
	// Render header and text rows master-side for dictionary-less callers,
	// exactly as a local ntga-run would print them.
	reply.Header, reply.RowsText = q.Render(res.Rows)
	reply.TotalRows = len(reply.RowsText)
	return reply, nil
}

// Execute runs one planned query across the cluster: q compiled from text
// against this master's dictionary, choice applied to it, over src, a
// source of one View of the warehouse. The query is registered for the
// workers' plan rebuilds, and an MR engine configured by cfg runs the full
// workflow with the remoteCluster as its EngineConfig.Runner, so
// planning, plan-IR lowering, output decoding, metrics and tracing work
// exactly as a local engine.Run — only task execution moves to the workers.
// Like engine.Run, it never returns a nil result.
func (m *Master) Execute(ctx context.Context, text string, q *query.Query, choice engines.Choice, src plan.Source, cfg mapreduce.EngineConfig) (*engine.Result, error) {
	eng, err := choice.Apply(q)
	if err != nil {
		return &engine.Result{}, err
	}
	// The source says what the warehouse holds; engine.Plan decides, the
	// same way here and in every worker's rebuild, what of it the plan uses
	// (an uncompacted delta chain sets the layout aside until compaction).
	spec := QuerySpec{
		Query:   text,
		Choice:  choice,
		Input:   src.Base,
		Deltas:  src.Deltas,
		DictLen: m.dict.Len(),
	}
	if src.Part != nil {
		spec.PartDir = src.Part.Dir
		spec.PartBuckets = src.Part.Buckets
	}
	m.mu.Lock()
	qs := m.s.addQuery(spec)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.s.dropQuery(qs)
		m.mu.Unlock()
	}()
	cfg.Runner = &remoteCluster{m: m, q: qs}
	return engine.Run(eng, mapreduce.NewEngine(m.dfs, cfg).WithContext(ctx), q, src)
}
