package cluster

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"
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
	// DefaultEngine answers RunArgs with an empty engine name.
	DefaultEngine string
	// PartitionBuckets, when > 0, makes the master build the partitioned
	// triple layout at boot (a one-time load job over its own DFS) and run
	// queries against it by default (RunArgs.NoPartition opts out per query).
	PartitionBuckets int
	// LeaseTimeout bounds one task attempt: a lease not reported back in
	// time is re-queued (the worker may still be alive but stuck).
	LeaseTimeout time.Duration
	// HeartbeatTimeout declares a silent worker dead; its leases and its
	// committed map outputs for unfinished jobs are re-queued.
	HeartbeatTimeout time.Duration
	// SweepEvery is the liveness/deadline sweep interval.
	SweepEvery time.Duration
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
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Reducers == 0 {
		c.Reducers = 8
	}
	if c.SplitRecords == 0 {
		c.SplitRecords = 8192
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = "ntga-lazy"
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 10 * time.Second
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = 100 * time.Millisecond
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.LeaseEvery == 0 {
		c.LeaseEvery = 25 * time.Millisecond
	}
	if c.MaxTaskAttempts == 0 {
		c.MaxTaskAttempts = 4
	}
	if c.Transport == nil {
		c.Transport = TCP()
	}
	return c
}

// workerState is the master's view of one registered worker.
type workerState struct {
	id          int
	addr        string
	mapSlots    int
	reduceSlots int
	mapBusy     int
	reduceBusy  int
	alive       bool
	lastBeat    time.Time
	tasksDone   int64
	tasksFailed int64
	// Transport-recovery totals shipped in heartbeats. Cumulative on the
	// worker and max-merged here (heartbeats can arrive out of order).
	rpcRetries   int64
	redials      int64
	fetchRetries int64
}

// queryState tracks one in-flight query: its rebuild spec (shipped inside
// every TaskSpec).
type queryState struct {
	id   string
	spec QuerySpec
	// bucketHolder remembers, per layout bucket, the worker that last
	// completed a whole-file task over it in this query — later bucket
	// jobs of the same query lease those buckets back to it (affinity).
	bucketHolder map[int]int
}

// taskState is one task of one job instance.
type taskState struct {
	done     bool
	leased   bool
	worker   int // current lease holder (valid while leased)
	holder   int // worker holding committed map output (-1 = none)
	attempts int
	deadline time.Time
	span     *trace.Span
	dur      time.Duration
	reduce   mapreduce.ReduceStats // what a committed reduce task consumed
	sunk     [][]byte              // a committed task's main output, for the job's sink
	// What the winning report counted: a map task's map output, or the
	// records and bytes a reduce or map-only task committed to the DFS; and
	// the attempt's counters. A re-executed map task's next winner replaces
	// them; runJob folds the done tasks' when the job ends.
	records, bytes int64
	counters       mapreduce.Counters
	// fetchFailed counts this reduce task's attempts that failed only
	// fetching map output; they are charged to the maps, not to the task's
	// attempt budget (charged). fetchFailures counts the fetch-failure
	// reports naming this map task's committed output.
	fetchFailed, fetchFailures int
}

// charged is how many of the task's attempts count against its budget.
func (ts *taskState) charged() int { return ts.attempts - ts.fetchFailed }

// fetchFailureLimit is how many fetch-failure reports may name one committed
// map output before it re-executes although its holder still looks alive —
// Hadoop's fetch-failure notifications. A reduce that fetches from a killed
// holder before the heartbeat timeout declares it dead takes the first
// report as transient; the second re-runs the map.
const fetchFailureLimit = 2

// jobState is one job instance being scheduled across the workers. It is
// the distributed counterpart of the local engine's per-job run state.
type jobState struct {
	qid    string
	id     int64
	job    *mapreduce.Job
	jsp    *trace.Span
	splits []mapreduce.Split
	// mapKind is "map" or "maponly"; nReducers is 0 for shuffle-free jobs.
	// wholeFile marks bucket-aligned jobs (task index == bucket index).
	wholeFile bool
	mapKind   string
	nReducers int
	maps      []*taskState
	reduces   []*taskState
	mapsDone  int

	finished bool
	err      error
	doneCh   chan struct{}

	retries, recoveries int64
}

// settleLocked finishes the job exactly once (m.mu held).
func (js *jobState) settleLocked(err error) {
	if js.finished || js.err != nil {
		return
	}
	if err == nil {
		js.finished = true
	} else {
		js.err = err
	}
	close(js.doneCh)
}

// Master is the coordinator: it owns the DFS and the dataset dictionary,
// compiles and plans queries, and leases task attempts to workers.
type Master struct {
	cfg   MasterConfig
	dfs   *hdfs.DFS
	dict  *rdf.Dict
	input string

	// wh owns the versioned dataset: every query plans from one View of
	// it, Register and Sync read the dictionary and its version from it in
	// one step, and the master's own jobs (layout load, compaction) run on
	// the in-process engine mr — no worker takes part.
	wh *ingest.Warehouse
	mr *mapreduce.Engine

	ln     net.Listener
	conns  *connSet
	ctx    context.Context
	cancel context.CancelFunc

	mu              sync.Mutex
	workers         map[int]*workerState
	queries         map[string]*queryState
	jobs            []*jobState // registration order: earlier jobs lease first
	workerSeq       int
	querySeq        int64
	jobSeq          int64
	workersLost     int64
	tasksDispatched int64
	reregistrations int64
	affineLeases    int64
}

// NewMaster builds a coordinator over the given graph: a warehouse over a
// fresh master-resident DFS holds the triples, the statistics catalog the
// "auto" engine advisor consults, and — with PartitionBuckets — the
// bucketed layout.
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
		cfg:     cfg,
		dfs:     dfs,
		dict:    g.Dict,
		input:   input,
		wh:      wh,
		mr:      mr,
		ctx:     ctx,
		cancel:  cancel,
		workers: make(map[int]*workerState),
		queries: make(map[string]*queryState),
	}, nil
}

// Serve starts the master's RPC endpoint and its liveness sweeper. It
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
	go m.sweeper()
	return nil
}

// Addr is the bound RPC address (valid after Serve).
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close stops the master like a process death: in-flight jobs fail, the
// sweeper exits, the listener closes, and every accepted connection is
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

func (m *Master) sweeper() {
	t := time.NewTicker(m.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.sweep(time.Now())
		}
	}
}

// sweep expires silent workers and overdue leases.
func (m *Master) sweep(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		if w.alive && now.Sub(w.lastBeat) > m.cfg.HeartbeatTimeout {
			w.alive = false
			w.mapBusy, w.reduceBusy = 0, 0
			m.workersLost++
			m.requeueWorkerLocked(w.id)
		}
	}
	for _, js := range m.jobs {
		if js.finished || js.err != nil {
			continue
		}
		for i, ts := range js.maps {
			if ts.leased && now.After(ts.deadline) {
				m.expireLeaseLocked(js, ts, js.mapKind, i)
			}
		}
		for p, ts := range js.reduces {
			if ts.leased && now.After(ts.deadline) {
				m.expireLeaseLocked(js, ts, "reduce", p)
			}
		}
	}
}

// expireLeaseLocked re-queues one overdue lease, failing the job when the
// task's attempt budget is spent.
func (m *Master) expireLeaseLocked(js *jobState, ts *taskState, kind string, idx int) {
	ts.leased = false
	ts.span.Finish()
	ts.span = nil
	if w := m.workers[ts.worker]; w != nil && w.alive {
		decBusy(w, kind)
	}
	if ts.charged() >= m.cfg.MaxTaskAttempts {
		js.settleLocked(fmt.Errorf("cluster: %s task %d: lease expired after %d attempts", kind, idx, ts.charged()))
	}
}

// requeueWorkerLocked returns a dead worker's work to the queue: its
// current leases, and — for unfinished shuffle jobs — the committed map
// outputs only it can serve, which must be re-executed elsewhere before any
// remaining reduce can run (Hadoop's map-output re-execution).
func (m *Master) requeueWorkerLocked(id int) {
	for _, js := range m.jobs {
		if js.finished || js.err != nil {
			continue
		}
		fail := func(ts *taskState, kind string, idx int) {
			if ts.leased && ts.worker == id {
				ts.leased = false
				ts.span.Finish()
				ts.span = nil
				if ts.charged() >= m.cfg.MaxTaskAttempts {
					js.settleLocked(fmt.Errorf("cluster: %s task %d: worker %d lost after %d attempts", kind, idx, id, ts.charged()))
				}
			}
		}
		for i, ts := range js.maps {
			fail(ts, js.mapKind, i)
			if js.mapKind == "map" && ts.done && ts.holder == id {
				ts.done = false
				ts.holder = -1
				js.mapsDone--
				js.recoveries++
			}
		}
		for p, ts := range js.reduces {
			fail(ts, "reduce", p)
		}
	}
}

func decBusy(w *workerState, kind string) {
	switch kind {
	case "reduce":
		if w.reduceBusy > 0 {
			w.reduceBusy--
		}
	default:
		if w.mapBusy > 0 {
			w.mapBusy--
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
	var w *workerState
	if args.PrevWorker != 0 {
		m.reregistrations++
		// A returning worker after a healed partition: revive the existing
		// record in place — same ID, so slots are not double-counted and its
		// committed map outputs stay addressed. Busy counters were zeroed
		// when the sweep declared it dead; if the sweep never fired (the
		// partition healed fast), the leases it still holds settle normally.
		// The address must match: a restarted master reassigns ids from 1,
		// so another returning worker's stale id could otherwise collide
		// with — and silently steal — a freshly created record.
		if prev := m.workers[args.PrevWorker]; prev != nil && prev.addr == args.Addr {
			w = prev
		}
	}
	if w != nil {
		w.addr = args.Addr
		w.mapSlots = args.MapSlots
		w.reduceSlots = args.ReduceSlots
		w.alive = true
		w.lastBeat = time.Now()
	} else {
		// First registration — or a PrevWorker this master does not know
		// (it restarted and lost its fleet table): assign a fresh ID.
		m.workerSeq++
		w = &workerState{
			id:          m.workerSeq,
			addr:        args.Addr,
			mapSlots:    args.MapSlots,
			reduceSlots: args.ReduceSlots,
			alive:       true,
			lastBeat:    time.Now(),
		}
		m.workers[w.id] = w
	}
	m.mu.Unlock()

	reply.Worker = w.id
	reply.Terms, reply.DatasetVersion = m.wh.Terms(0)
	reply.Input = m.input
	reply.HeartbeatEvery = m.cfg.HeartbeatEvery
	reply.LeaseEvery = m.cfg.LeaseEvery
	return nil
}

func (r *masterRPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[args.Worker]
	if w == nil {
		return fmt.Errorf("cluster: unknown worker %d", args.Worker)
	}
	w.lastBeat = time.Now()
	// A worker that was declared dead and then reappears stays lost: its
	// map outputs were already re-queued, so resurrecting it as a lease
	// target is fine — just mark it alive again.
	if !w.alive {
		w.alive = true
	}
	if args.RPCRetries > w.rpcRetries {
		w.rpcRetries = args.RPCRetries
	}
	if args.Redials > w.redials {
		w.redials = args.Redials
	}
	if args.FetchRetries > w.fetchRetries {
		w.fetchRetries = args.FetchRetries
	}
	for qid := range m.queries {
		reply.LiveQueries = append(reply.LiveQueries, qid)
	}
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

func (r *masterRPC) Ingest(args *IngestArgs, reply *IngestReply) error {
	res, err := r.m.Ingest(bytes.NewReader(args.Batch))
	if err != nil {
		return err
	}
	*reply = *res
	return nil
}

func (r *masterRPC) Compact(args *CompactArgs, reply *CompactReply) error {
	res, err := r.m.Compact()
	if err != nil {
		return err
	}
	reply.Result = *res
	return nil
}

// Ingest appends one N-Triples batch to the master's warehouse, which
// folds it into the catalog the "auto" advisor consults. The fleet learns
// the new version via heartbeats and the new dictionary terms lazily via
// Master.Sync at plan-rebuild time; nothing is pushed — delta blocks live
// on the master's DFS, which workers already read splits through.
func (m *Master) Ingest(r io.Reader) (*IngestReply, error) {
	res, err := m.wh.Ingest(r)
	if err != nil {
		return nil, err
	}
	return &IngestReply{
		Triples:        len(res.Triples),
		Seq:            res.Seq,
		DatasetVersion: res.Version,
		DeltaBlocks:    len(m.wh.View().Source.Deltas),
	}, nil
}

// Compact folds the delta chain into a fresh base generation on the
// master's own in-process MR engine — the master owns the DFS, so no worker
// is involved — and maintains the partition layout in the same pass when
// one exists. The dataset version (and the fleet's dictionaries) are
// untouched: content is unchanged.
func (m *Master) Compact() (*ingest.CompactResult, error) { return m.wh.Compact(m.mr) }

func (r *masterRPC) Lease(args *LeaseArgs, reply *LeaseReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[args.Worker]
	if w == nil {
		return fmt.Errorf("cluster: unknown worker %d", args.Worker)
	}
	if !w.alive {
		// Leasing is as good as a heartbeat.
		w.alive = true
		w.lastBeat = time.Now()
	}
	reply.Task = m.leaseLocked(w, args.Kind)
	return nil
}

// leaseLocked grants the first pending task of the kind, scanning jobs in
// registration order. Map-kind slots run both "map" and "maponly" specs;
// reduce tasks only unlock once every map output of their job is committed.
func (m *Master) leaseLocked(w *workerState, kind string) *TaskSpec {
	for _, js := range m.jobs {
		if js.finished || js.err != nil {
			continue
		}
		qs := m.queries[js.qid]
		if qs == nil {
			continue
		}
		switch kind {
		case "map":
			grant := func(i int, affine bool) *TaskSpec {
				spec := &TaskSpec{
					QueryID:     js.qid,
					Spec:        qs.spec,
					JobID:       js.id,
					JobName:     js.job.Name,
					Kind:        js.mapKind,
					Task:        i,
					NumReducers: js.nReducers,
					JobInputs:   js.job.Inputs,
					Split:       js.splits[i],
				}
				if i < len(js.job.TaskSideInputs) {
					spec.SideInput = js.job.TaskSideInputs[i]
				}
				m.grantLocked(js, js.maps[i], w, js.mapKind, spec, i, i)
				if affine {
					m.affineLeases++
				}
				return spec
			}
			// Bucket affinity: on bucket-aligned jobs, hand this worker the
			// pending buckets it already processed earlier in the query
			// before falling back to an arbitrary pending task.
			if js.wholeFile {
				for i, ts := range js.maps {
					if !ts.done && !ts.leased && qs.bucketHolder[i] == w.id {
						return grant(i, true)
					}
				}
			}
			for i, ts := range js.maps {
				if ts.done || ts.leased {
					continue
				}
				return grant(i, false)
			}
		case "reduce":
			if js.mapKind != "map" || js.mapsDone != len(js.maps) {
				continue
			}
			for p, ts := range js.reduces {
				if ts.done || ts.leased {
					continue
				}
				locs := make([]MapLoc, len(js.maps))
				ok := true
				for t, mt := range js.maps {
					hw := m.workers[mt.holder]
					if hw == nil {
						ok = false
						break
					}
					locs[t] = MapLoc{Task: t, Worker: mt.holder, Addr: hw.addr}
				}
				if !ok {
					continue
				}
				spec := &TaskSpec{
					QueryID:     js.qid,
					Spec:        qs.spec,
					JobID:       js.id,
					JobName:     js.job.Name,
					Kind:        "reduce",
					Task:        p,
					NumReducers: js.nReducers,
					JobInputs:   js.job.Inputs,
					Partition:   p,
					Maps:        locs,
				}
				m.grantLocked(js, ts, w, "reduce", spec, p, len(js.splits)+p)
				return spec
			}
		}
	}
	return nil
}

// grantLocked marks the lease: attempt numbers are drawn here (a re-queued
// task's next grant counts as a retry), the deadline starts ticking, and a
// task span opens with the worker ID as the node.
func (m *Master) grantLocked(js *jobState, ts *taskState, w *workerState, kind string, spec *TaskSpec, task, group int) {
	spec.Attempt = ts.attempts
	if ts.attempts > 0 {
		js.retries++
	}
	ts.attempts++
	ts.leased = true
	ts.worker = w.id
	ts.deadline = time.Now().Add(m.cfg.LeaseTimeout)
	spanKind := kind
	if spanKind == "maponly" {
		spanKind = "map"
	}
	ts.span = js.jsp.ChildTask(spanKind, group, task, w.id, spec.Attempt)
	if kind == "reduce" {
		w.reduceBusy++
	} else {
		w.mapBusy++
	}
	m.tasksDispatched++
}

func (r *masterRPC) Report(args *ReportArgs, reply *ReportReply) error {
	r.m.report(args)
	return nil
}

func (m *Master) report(args *ReportArgs) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.workers[args.Worker]; w != nil && w.alive {
		decBusy(w, args.Kind)
		if args.OK {
			w.tasksDone++
		} else {
			w.tasksFailed++
		}
	}
	var js *jobState
	for _, j := range m.jobs {
		if j.id == args.JobID {
			js = j
			break
		}
	}
	if js == nil || js.finished || js.err != nil {
		return // job settled or gone; late report
	}
	// The task index comes from the worker: out of range, the report names
	// no task of this job.
	var ts *taskState
	switch args.Kind {
	case "reduce":
		if args.Task < 0 || args.Task >= len(js.reduces) {
			return
		}
		ts = js.reduces[args.Task]
	default:
		if args.Task < 0 || args.Task >= len(js.maps) {
			return
		}
		ts = js.maps[args.Task]
	}
	released := ts.leased && ts.worker == args.Worker
	if released {
		ts.leased = false
		ts.span.Finish()
		ts.span = nil
	}
	if ts.done {
		return // a rival attempt already committed; deterministic outputs make this report redundant
	}
	if !args.OK {
		m.reportFailureLocked(js, ts, args, released)
		return
	}
	ts.done = true
	ts.holder = args.Worker
	ts.dur = args.Duration
	ts.counters = args.Counters
	switch args.Kind {
	case "map":
		js.mapsDone++
		ts.records, ts.bytes = args.Records, args.Bytes
		if js.mapsDone == len(js.maps) && js.mapKind == "maponly" {
			js.settleLocked(nil)
		}
	default: // reduce, maponly: commit the shipped output as part files
		if err := m.commitTaskLocked(js, ts, args); err != nil {
			js.settleLocked(err)
			return
		}
		ts.reduce = mapreduce.ReduceStats{Groups: args.Groups, InPairs: args.InPairs, InBytes: args.InBytes}
		if args.Kind == "maponly" {
			js.mapsDone++
			if js.wholeFile {
				if qs := m.queries[js.qid]; qs != nil {
					qs.bucketHolder[args.Task] = args.Worker
				}
			}
			if js.mapsDone == len(js.maps) {
				js.settleLocked(nil)
			}
		} else {
			done := 0
			for _, rt := range js.reduces {
				if rt.done {
					done++
				}
			}
			if done == len(js.reduces) {
				js.settleLocked(nil)
			}
		}
	}
}

// commitTaskLocked writes one task's shipped output records as the job's
// part files (the distributed stand-in for the local attempt-commit rename;
// every record is written here, so DFS capacity failures surface exactly
// like a local mid-reduce disk-full) and counts what it wrote on the task. A
// job with a sink keeps the main-output records on the task instead (or as
// well, when persisted); runJob hands them to the sink once the job has
// finished.
func (m *Master) commitTaskLocked(js *jobState, ts *taskState, args *ReportArgs) error {
	bases := js.job.OutputBases()
	if len(args.Outputs) != len(bases) {
		return fmt.Errorf("cluster: %s task %d shipped %d outputs, job %s has %d", args.Kind, args.Task, len(args.Outputs), js.job.Name, len(bases))
	}
	if js.job.Sink != nil {
		ts.sunk = args.Outputs[0]
	}
	for b, base := range bases {
		if b == 0 && js.job.Sunk() {
			continue
		}
		name := mapreduce.PartName(base, args.Task)
		if err := m.dfs.WriteFile(name, args.Outputs[b]); err != nil {
			return fmt.Errorf("committing %s: %w", name, err)
		}
		for _, rec := range args.Outputs[b] {
			ts.records++
			ts.bytes += int64(len(rec))
		}
	}
	return nil
}

// reportFailureLocked handles a failed attempt; released says the report
// ended the task's current lease. A reduce attempt that failed only fetching
// map output (LostMaps) is charged to the maps it names, not to its own
// attempt budget: each named committed output re-executes once its holder
// is dead or fetchFailureLimit reports have named it, and the reduce waits
// for it. Any other failure — or a report whose attempt was already settled
// by lease expiry or worker loss — leaves the budget spent, and a task whose
// budget is spent fails the job.
func (m *Master) reportFailureLocked(js *jobState, ts *taskState, args *ReportArgs, released bool) {
	named := false
	for _, t := range args.LostMaps {
		if t < 0 || t >= len(js.maps) {
			continue
		}
		named = true
		mt := js.maps[t]
		if !mt.done {
			continue
		}
		mt.fetchFailures++
		if hw := m.workers[mt.holder]; hw != nil && hw.alive && mt.fetchFailures < fetchFailureLimit {
			continue // holder looks fine; treat the first failure as transient
		}
		mt.done = false
		mt.holder = -1
		mt.fetchFailures = 0
		js.mapsDone--
		js.recoveries++
	}
	if named && released {
		ts.fetchFailed++
	}
	if ts.charged() >= m.cfg.MaxTaskAttempts {
		js.settleLocked(fmt.Errorf("cluster: %s task %d failed after %d attempts: %s", args.Kind, args.Task, ts.charged(), args.Err))
	}
	// Otherwise the task is already back to pending (lease released above).
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

func (r *masterRPC) Status(args *StatusArgs, reply *StatusReply) error {
	*reply = r.m.Status()
	return nil
}

// Status snapshots the cluster.
func (m *Master) Status() StatusReply {
	ds := m.wh.View()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := StatusReply{
		Triples:               ds.Triples,
		DatasetVersion:        ds.Version,
		WorkersLost:           m.workersLost,
		ActiveQueries:         len(m.queries),
		TasksDispatched:       m.tasksDispatched,
		WorkerReregistrations: m.reregistrations,
		AffineLeases:          m.affineLeases,
	}
	for _, w := range m.workers {
		st.RPCRetries += w.rpcRetries
		st.Redials += w.redials
		st.FetchTransientRetries += w.fetchRetries
		st.Workers = append(st.Workers, WorkerStatus{
			ID:              w.id,
			Addr:            w.addr,
			Alive:           w.alive,
			MapSlots:        w.mapSlots,
			ReduceSlots:     w.reduceSlots,
			MapBusy:         w.mapBusy,
			ReduceBusy:      w.reduceBusy,
			LastHeartbeatMS: time.Since(w.lastBeat).Milliseconds(),
			TasksDone:       w.tasksDone,
			TasksFailed:     w.tasksFailed,
		})
	}
	slices.SortFunc(st.Workers, func(a, b WorkerStatus) int { return cmp.Compare(a.ID, b.ID) })
	return st
}

// ---- query execution ----

// remoteCluster is the mapreduce.JobRunner the master plugs into its own
// engine: the engine does all planning and workflow orchestration, and
// every validated job lands in runJob to be scheduled across the workers.
type remoteCluster struct {
	m   *Master
	qid string
}

func (rc *remoteCluster) Name() string { return "distributed" }

func (rc *remoteCluster) RunJob(ctx context.Context, jsp *trace.Span, job *mapreduce.Job, cfg mapreduce.EngineConfig) (mapreduce.JobMetrics, error) {
	return rc.m.runJob(ctx, rc.qid, jsp, job, cfg)
}

// runJob schedules one job: plan splits from DFS metadata, enqueue the
// job's tasks for the lease loop, wait for the reports to finish it, then
// splice the committed part files into the job outputs and hand a sink its
// tasks' main output. On failure every written part and output base is
// removed — the JobRunner cleanup contract. Planning, the per-task profile
// and the splice are the local engine's own.
func (m *Master) runJob(ctx context.Context, qid string, jsp *trace.Span, job *mapreduce.Job, cfg mapreduce.EngineConfig) (mapreduce.JobMetrics, error) {
	var jm mapreduce.JobMetrics
	splits, err := mapreduce.PlanSplits(m.dfs, job, cfg.SplitRecords, &jm)
	if err != nil {
		return jm, err
	}

	js := &jobState{
		qid:       qid,
		job:       job,
		jsp:       jsp,
		splits:    splits,
		wholeFile: job.WholeFileSplits,
		mapKind:   "map",
		doneCh:    make(chan struct{}),
	}
	nParts := len(splits)
	if job.ShuffleFree() {
		js.mapKind = "maponly"
	} else {
		js.nReducers = job.NumReducers
		if js.nReducers == 0 {
			js.nReducers = cfg.DefaultReducers
		}
		nParts = js.nReducers
		js.reduces = make([]*taskState, js.nReducers)
		for p := range js.reduces {
			js.reduces[p] = &taskState{holder: -1}
		}
	}
	js.maps = make([]*taskState, len(splits))
	for i := range js.maps {
		js.maps[i] = &taskState{holder: -1}
	}

	m.mu.Lock()
	m.jobSeq++
	js.id = m.jobSeq
	m.jobs = append(m.jobs, js)
	m.mu.Unlock()
	defer m.dropJob(js)

	select {
	case <-js.doneCh:
	case <-ctx.Done():
		m.mu.Lock()
		js.settleLocked(context.Cause(ctx))
		m.mu.Unlock()
	case <-m.ctx.Done():
		m.mu.Lock()
		js.settleLocked(fmt.Errorf("cluster: master shutting down"))
		m.mu.Unlock()
	}

	m.mu.Lock()
	err = js.err
	jm.TaskRetries = js.retries
	jm.MapOutputRecoveries = js.recoveries
	// Each done task counts once, from its winning report.
	outTasks := js.reduces
	if js.mapKind == "maponly" {
		outTasks = js.maps
	}
	var mapDurs, reduceDurs []time.Duration
	for _, ts := range js.maps {
		if ts.done {
			mapDurs = append(mapDurs, ts.dur)
			jm.Counters.Add(ts.counters)
			if js.mapKind == "map" {
				jm.MapOutputRecords += ts.records
				jm.MapOutputBytes += ts.bytes
			}
		}
	}
	reduces := make([]mapreduce.ReduceStats, len(js.reduces))
	for p, ts := range js.reduces {
		if ts.done {
			reduceDurs = append(reduceDurs, ts.dur)
			reduces[p] = ts.reduce
			jm.Counters.Add(ts.counters)
		}
	}
	for _, ts := range outTasks {
		if ts.done {
			jm.ReduceOutputRecords += ts.records
			jm.ReduceOutputBytes += ts.bytes
		}
	}
	var sunk [][][]byte
	if err == nil && job.Sink != nil {
		sunk = make([][][]byte, len(outTasks))
		for i, ts := range outTasks {
			sunk[i] = ts.sunk
		}
	}
	m.mu.Unlock()
	jm.FoldTaskStats(mapDurs, reduceDurs, reduces)

	if err == nil {
		err = mapreduce.CommitParts(m.dfs, job, nParts)
	}
	if err == nil && job.Sink != nil {
		err = feedSink(job.Sink, sunk)
	}
	if err != nil {
		mapreduce.RemoveOutputs(m.dfs, job, nParts)
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

// dropJob unlists a settled job and finishes any dangling lease spans.
// Workers still running its tasks will report into the void (ignored) and
// prune their caches at the next heartbeat after the query ends.
func (m *Master) dropJob(js *jobState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, j := range m.jobs {
		if j == js {
			m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
			break
		}
	}
	for _, ts := range js.maps {
		ts.span.Finish()
		ts.span = nil
	}
	for _, ts := range js.reduces {
		ts.span.Finish()
		ts.span = nil
	}
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
		engName = m.cfg.DefaultEngine
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
	// The join order is the caller's (a server ships its optimizer's); the
	// master itself never searches.
	choice, _, _, err := engines.Choose(ds.Catalog, q, engName, args.PhiM, reducers, false)
	if err != nil {
		return nil, err
	}
	choice.Order, choice.Reordered = args.Order, args.HasOrder
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
// workflow with the remoteCluster JobRunner plugged into its seam, so
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
	qs := m.registerQuery(spec)
	defer m.releaseQuery(qs.id)
	cfg.Cluster = &remoteCluster{m: m, qid: qs.id}
	return engine.Run(eng, mapreduce.NewEngine(m.dfs, cfg).WithContext(ctx), q, src)
}

func (m *Master) registerQuery(spec QuerySpec) *queryState {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.querySeq++
	qs := &queryState{
		id:           fmt.Sprintf("q-%06d", m.querySeq),
		spec:         spec,
		bucketHolder: make(map[int]int),
	}
	m.queries[qs.id] = qs
	return qs
}

func (m *Master) releaseQuery(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.queries, id)
}
