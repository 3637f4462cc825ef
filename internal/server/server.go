package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntga/internal/cluster"
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

// ErrOverloaded is the load-shedding error: the request was refused at
// admission because MaxInflight queries are already running and the
// waiting line is at MaxQueue. Clients should back off and retry; the HTTP
// layer maps it to 429.
var ErrOverloaded = errors.New("server: overloaded, admission queue full")

// ErrBadQuery wraps parse/compile failures so the HTTP layer can map them
// to 400 instead of 500.
var ErrBadQuery = errors.New("server: bad query")

// Config sizes the resident service.
type Config struct {
	// Nodes / Replication size the simulated cluster (defaults 8 / 1).
	Nodes       int
	Replication int
	// MapSlots / ReduceSlots size the shared slot pool every in-flight
	// workflow's tasks lease from (defaults 8 / 8), so together they bound
	// the server's concurrent map and reduce tasks.
	MapSlots    int
	ReduceSlots int
	// MaxInflight bounds concurrently executing queries; MaxQueue bounds
	// how many more may wait for an execution token. Beyond both, requests
	// are shed with ErrOverloaded (defaults 4 / 16).
	MaxInflight int
	MaxQueue    int
	// Admission, when set, replaces the fixed MaxInflight+MaxQueue
	// admission window with the p95-adaptive controller (admission.go):
	// the shed threshold follows the measured queue wait instead of a
	// static count. nil keeps the fixed window exactly as before.
	Admission *AdmissionConfig
	// DefaultTimeout is the per-query deadline when a request does not set
	// its own (default 60s).
	DefaultTimeout time.Duration
	// ResultCacheEntries sizes the LRU result cache (default 256; negative
	// disables caching).
	ResultCacheEntries int
	// DefaultEngine answers requests that name no engine (default
	// "ntga-lazy"; "auto" asks the catalog-driven advisor per query).
	DefaultEngine string
	// Reducers / SplitRecords / SortBufferBytes are the per-query
	// EngineConfig knobs (defaults 8 / 8192 / 0).
	Reducers        int
	SplitRecords    int
	SortBufferBytes int64
	// TaskMaxAttempts passes through to every query's engine config as the
	// per-task retry budget.
	TaskMaxAttempts int
	// Faults arms the seeded chaos plan on every served workflow (shared
	// across queries — the plan's draws are checkpoint-scoped), so serving
	// can be soaked with attempts that die holding partial state.
	Faults *mapreduce.FaultPlan
	// Tracer, when set, records every served workflow's span tree
	// (requests that ask for a Timeline still get a private tracer). The
	// concurrency acceptance tests use it to prove from task spans that
	// in-flight tasks never exceed the slot pool.
	Tracer *trace.Tracer
	// Master switches execution to distributed mode: the server hosts this
	// coordinator, which must already serve its worker RPC (Master.Serve).
	// The server then holds no dataset of its own: it plans, caches,
	// ingests and compacts over the master's DFS and warehouse — the one
	// copy the workers read — and every query's jobs run on the master's
	// fleet (Master.Execute) instead of the in-process engine. Nodes and
	// Replication then go unused (the master sized its DFS), and the
	// workers' slots, not MapSlots/ReduceSlots, bound query tasks.
	Master *cluster.Master
	// CompactAfter, when > 0, auto-runs delta-merge compaction at the end
	// of any ingest that leaves the delta chain this long or longer. 0
	// leaves compaction to explicit POST /compact calls.
	CompactAfter int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.MapSlots == 0 {
		c.MapSlots = 8
	}
	if c.ReduceSlots == 0 {
		c.ReduceSlots = 8
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = "ntga-lazy"
	}
	if c.Reducers == 0 {
		c.Reducers = 8
	}
	return c
}

// Server is the resident query service: one DFS with the triple relation
// loaded, one statistics catalog, a shared slot pool, the plan and result
// caches, and the admission machinery. Safe for concurrent use.
type Server struct {
	cfg  Config
	dfs  *hdfs.DFS
	dict *rdf.Dict

	// wh owns the versioned dataset: every query takes one View of it, and
	// ingestMu serializes this server's ingest/compact sequences (apply,
	// cache upkeep) against each other.
	wh       *ingest.Warehouse
	ingestMu sync.Mutex

	pool    *Pool
	plans   *planCache
	results *resultCache

	// admitted counts requests inside the admission window (running or
	// queued); sem is the MaxInflight execution token pool. admission is
	// the optional adaptive window controller (nil = fixed window);
	// queueWaits tracks the admission→token wait per tenant for /metrics.
	admitted   atomic.Int64
	sem        chan struct{}
	admission  *admissionController
	queueWaits *queueWaits

	jobs *jobRegistry

	baseCtx context.Context
	stop    context.CancelFunc
	started time.Time

	// Rolled-up service counters (atomics).
	mQueries   atomic.Int64
	mSucceeded atomic.Int64
	mFailed    atomic.Int64
	mShed      atomic.Int64
	mCycles    atomic.Int64
	mReclaimed atomic.Int64
	// Ingest-path counters: accepted batches / triples, compactions run,
	// and the cumulative retained/evicted split of result-cache upkeep.
	mIngests       atomic.Int64
	mIngestTriples atomic.Int64
	mCompactions   atomic.Int64
	mCacheRetained atomic.Int64
	mCacheEvicted  atomic.Int64
}

// New builds a server over the given graph: loads the triple relation into
// a fresh DFS, computes the exact statistics catalog and the content
// versions, and stands up the pool, caches, and admission state. With
// Config.Master the server serves the master's warehouse instead, and g is
// unused.
func New(cfg Config, g *rdf.Graph) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.MapSlots, cfg.ReduceSlots)
	if err != nil {
		return nil, err
	}
	var dfs *hdfs.DFS
	var wh *ingest.Warehouse
	if m := cfg.Master; m != nil {
		dfs, wh = m.DFS(), m.Warehouse()
	} else {
		dfs = hdfs.New(hdfs.Config{Nodes: cfg.Nodes, Replication: cfg.Replication})
		// The server plans without a layout, so Open runs no MR job here.
		if wh, err = ingest.Open(mapreduce.NewEngine(dfs, mapreduce.EngineConfig{}), "data/triples", g, "", 0); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	var ctrl *admissionController
	if cfg.Admission != nil {
		ctrl, err = newAdmissionController(*cfg.Admission, cfg.MaxInflight+cfg.MaxQueue)
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		dfs:        dfs,
		dict:       wh.Graph().Dict,
		wh:         wh,
		pool:       pool,
		plans:      newPlanCache(),
		results:    newResultCache(cfg.ResultCacheEntries),
		sem:        make(chan struct{}, cfg.MaxInflight),
		admission:  ctrl,
		queueWaits: newQueueWaits(),
		jobs:       newJobRegistry(),
		baseCtx:    ctx,
		stop:       cancel,
		started:    time.Now(),
	}
	return s, nil
}

// Close cancels every in-flight query's base context.
func (s *Server) Close() { s.stop() }

// Request is one query submission (the POST /query body).
type Request struct {
	// Query is the SPARQL text (required).
	Query string `json:"query"`
	// Engine overrides the server's default engine for this request
	// ("auto" asks the catalog advisor).
	Engine string `json:"engine,omitempty"`
	// PhiM overrides the partial β-unnest partition range.
	PhiM int `json:"phim,omitempty"`
	// Tenant and Weight select the slot pool scheduling class; empty
	// tenant means "default", weight <= 0 means 1.
	Tenant string `json:"tenant,omitempty"`
	Weight int    `json:"weight,omitempty"`
	// TimeoutMS caps the query's wall clock (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (it still
	// populates it), for benchmarking and freshness-paranoid callers.
	NoCache bool `json:"no_cache,omitempty"`
	// Limit truncates the returned rows (0 = all); TotalRows always
	// reports the full count.
	Limit int `json:"limit,omitempty"`
	// Metrics includes per-job workflow metrics in the response.
	Metrics bool `json:"metrics,omitempty"`
	// Timeline includes a plain-text per-job task timeline (implies
	// tracing the run).
	Timeline bool `json:"timeline,omitempty"`
}

// JobSummary is the per-job slice of mapreduce.JobMetrics a response
// carries when Request.Metrics is set.
type JobSummary struct {
	Job                string `json:"job"`
	DurationMS         int64  `json:"duration_ms"`
	MapInputBytes      int64  `json:"map_input_bytes"`
	ShuffleBytes       int64  `json:"shuffle_bytes"`
	ReduceOutputBytes  int64  `json:"reduce_output_bytes"`
	SpilledBytes       int64  `json:"spilled_bytes"`
	TaskRetries        int64  `json:"task_retries"`
	TempBytesReclaimed int64  `json:"temp_bytes_reclaimed"`
}

// Response is one query's answer (the POST /query reply body).
type Response struct {
	Engine string `json:"engine"`
	// Cache is the result-cache disposition: "hit" (served without any MR
	// cycle), "miss", "bypass" (NoCache), or "off" (cache disabled).
	Cache string `json:"cache"`
	// PlanCache is "hit" or "miss" for the optimizer-output cache.
	PlanCache string `json:"plan_cache"`

	IsCount bool     `json:"is_count"`
	Count   int64    `json:"count"`
	Header  []string `json:"header,omitempty"`
	// Terms and Cells are the returned rows, possibly truncated by
	// Request.Limit, as a term table (cells.go): every distinct rendered
	// term once, in order of first use, then one index into Terms per
	// cell, row-major, len(Header) wide. Terms holds only the terms the
	// returned cells name.
	Terms []string `json:"terms,omitempty"`
	Cells []uint32 `json:"cells,omitempty"`
	// Rows are the same rows as text, each its cells' terms joined by '\t'.
	// They never cross the wire: Server.Evaluate, Client.Query and
	// Client.Job rebuild them from the table. An in-process async job's
	// Response (JobStatus, WaitJob) carries the table only.
	Rows      []string `json:"-"`
	TotalRows int      `json:"total_rows"`

	// Cycles is the number of MR jobs this request actually executed —
	// zero when served from the result cache.
	Cycles             int    `json:"cycles"`
	ShuffleBytes       int64  `json:"shuffle_bytes"`
	EstShuffleBytes    int64  `json:"est_shuffle_bytes"`
	OutputRecords      int64  `json:"output_records"`
	OutputBytes        int64  `json:"output_bytes"`
	TaskRetries        int64  `json:"task_retries"`
	TempBytesReclaimed int64  `json:"temp_bytes_reclaimed"`
	DurationMS         int64  `json:"duration_ms"`
	JoinOrder          []int  `json:"join_order,omitempty"`
	Tenant             string `json:"tenant,omitempty"`

	Jobs     []JobSummary `json:"jobs,omitempty"`
	Timeline string       `json:"timeline,omitempty"`
}

// admit charges one request against the admission window, shedding with
// ErrOverloaded when the window is full. The window is the fixed
// MaxInflight+MaxQueue, or — with the adaptive controller armed — the
// current p95-steered limit. The returned release must be called when the
// request finishes.
func (s *Server) admit() (func(), error) {
	limit := int64(s.cfg.MaxInflight + s.cfg.MaxQueue)
	if s.admission != nil {
		limit = s.admission.Limit()
	}
	if s.admitted.Add(1) > limit {
		s.admitted.Add(-1)
		s.mShed.Add(1)
		return nil, ErrOverloaded
	}
	return func() { s.admitted.Add(-1) }, nil
}

// Evaluate runs one query synchronously: admission, parse/compile, plan
// cache, result cache, and — on a miss — a slot-pool-scheduled MR
// execution under the request deadline. The response carries Rows,
// rebuilt from its term table; an answer whose rows would pass
// maxRowBytes (1 GiB) is an error, as it is for Client.Query.
func (s *Server) Evaluate(ctx context.Context, req Request) (*Response, error) {
	resp, err := s.evaluateTable(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := resp.unpackRows(); err != nil {
		return nil, err
	}
	return resp, nil
}

// evaluateTable is Evaluate without the row text: the HTTP handler ships
// the term table as it is.
func (s *Server) evaluateTable(ctx context.Context, req Request) (*Response, error) {
	release, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	return s.evaluate(ctx, req)
}

// evaluate is the admission-charged evaluation body.
func (s *Server) evaluate(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	s.mQueries.Add(1)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	if strings.TrimSpace(req.Query) == "" {
		s.mFailed.Add(1)
		return nil, fmt.Errorf("%w: empty query", ErrBadQuery)
	}
	q, err := query.Parse(req.Query, s.dict)
	if err != nil {
		s.mFailed.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}

	// One consistent dataset snapshot per request: catalog, versions, base
	// input, and delta chain all move together under ingestion.
	ds := s.wh.View()

	// Plan cache: choose the engine and join order once per (query, engine
	// request, catalog version). The catalog is the request's snapshot, not
	// the live field: choosing and key derivation see the same statistics.
	engName := req.Engine
	if engName == "" {
		engName = s.cfg.DefaultEngine
	}
	qfp := queryFingerprint(q)
	planKey := fingerprint(qfp, engName, fmt.Sprint(req.PhiM), ds.CatalogVersion)
	entry, planHit := s.plans.get(planKey)
	if !planHit {
		ch, _, r, err := engines.Choose(ds.Catalog, q, engName, req.PhiM, s.cfg.Reducers, true)
		if err != nil {
			s.mFailed.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		entry = planEntry{Choice: ch, EstShuffle: r.Est}
		s.plans.put(planKey, entry)
	}
	planDisposition := "miss"
	if planHit {
		planDisposition = "hit"
	}

	resp := &Response{
		Engine:          entry.Engine,
		PlanCache:       planDisposition,
		EstShuffleBytes: entry.EstShuffle,
		JoinOrder:       entry.Order,
		Tenant:          req.Tenant,
		IsCount:         q.IsCount(),
	}

	// Result cache: a hit answers without touching the cluster at all —
	// zero MR cycles, zero slot leases. The identity travels with the
	// entry so ingest-time maintenance can re-key retained results.
	resultKey := fingerprint(planKey, ds.Version)
	cid := cacheIdentity{q: q, qfp: qfp, engine: engName, phiM: fmt.Sprint(req.PhiM)}
	switch {
	case s.results == nil:
		resp.Cache = "off"
	case req.NoCache:
		resp.Cache = "bypass"
	default:
		if cached, ok := s.results.get(resultKey); ok {
			resp.Cache = "hit"
			resp.Engine = cached.engine
			s.renderRows(resp, cached, req.Limit)
			resp.DurationMS = time.Since(start).Milliseconds()
			s.mSucceeded.Add(1)
			return resp, nil
		}
		resp.Cache = "miss"
	}

	// Execution token: at most MaxInflight queries drive the cluster at
	// once; the rest wait here (bounded by admission) or die with their
	// deadline. The wait is the queue-wait signal: it feeds the per-tenant
	// /metrics rollup and — when armed — the adaptive admission
	// controller, including waits that ended in a deadline (those are the
	// strongest over-admission evidence there is).
	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.observeQueueWait(req.Tenant, time.Since(queued))
	case <-ctx.Done():
		s.observeQueueWait(req.Tenant, time.Since(queued))
		s.mFailed.Add(1)
		return nil, context.Cause(ctx)
	}
	defer func() { <-s.sem }()

	tracer := s.cfg.Tracer
	if req.Timeline {
		tracer = trace.New()
	}
	// The snapshot's base and delta chain run together: uncompacted delta
	// blocks are overlaid on every scan of the triple relation, with rows
	// byte-identical to a from-scratch load of the merged dataset.
	res, err := s.execute(ctx, req.Query, q, entry.Choice, ds.Source, mapreduce.EngineConfig{
		DefaultReducers: s.cfg.Reducers,
		SplitRecords:    s.cfg.SplitRecords,
		SortBufferBytes: s.cfg.SortBufferBytes,
		TaskMaxAttempts: s.cfg.TaskMaxAttempts,
		Faults:          s.cfg.Faults,
		Slots:           s.pool.Lease(req.Tenant, req.Weight),
		Tracer:          tracer,
	})
	s.foldWorkflow(resp, &res.Workflow, req.Metrics)
	// Only the request-private tracer is rendered: snapshotting a shared
	// config tracer here would race with other queries' spans finishing.
	if req.Timeline {
		resp.Timeline = trace.Timeline(tracer.Roots())
	}
	if err != nil {
		s.mFailed.Add(1)
		return resp, err
	}

	cached := newResultEntry(q, res.Engine, res.Rows, res.IsCount, res.Count, res.OutputRecords, res.OutputBytes)
	s.results.put(resultKey, cached, cid)
	resp.Engine = cached.engine
	s.renderRows(resp, cached, req.Limit)
	resp.DurationMS = time.Since(start).Milliseconds()
	s.mSucceeded.Add(1)
	return resp, nil
}

// execute runs a planned query over src, a source of one warehouse View:
// on the master's fleet in distributed mode, on the in-process engine over
// the server's DFS otherwise. Both run the same plan through the same MR
// engine; only the JobRunner under it differs. Like engine.Run, it never
// returns a nil result.
func (s *Server) execute(ctx context.Context, text string, q *query.Query, choice engines.Choice, src plan.Source, cfg mapreduce.EngineConfig) (*engine.Result, error) {
	if m := s.cfg.Master; m != nil {
		return m.Execute(ctx, text, q, choice, src, cfg)
	}
	eng, err := choice.Apply(q)
	if err != nil {
		return &engine.Result{}, err
	}
	return engine.Run(eng, mapreduce.NewEngine(s.dfs, cfg).WithContext(ctx), q, src)
}

// foldWorkflow records one execution's cost on the response and the
// daemon's counters, with the per-job breakdown when the request asked for
// it.
func (s *Server) foldWorkflow(resp *Response, wf *mapreduce.WorkflowMetrics, perJob bool) {
	resp.Cycles = len(wf.Jobs)
	resp.ShuffleBytes = wf.TotalMapOutputBytes()
	resp.TaskRetries = wf.TotalTaskRetries()
	resp.TempBytesReclaimed = wf.TotalTempBytesReclaimed()
	s.mCycles.Add(int64(resp.Cycles))
	s.mReclaimed.Add(resp.TempBytesReclaimed)
	if !perJob {
		return
	}
	for _, j := range wf.Jobs {
		resp.Jobs = append(resp.Jobs, JobSummary{
			Job:                j.Job,
			DurationMS:         j.Duration.Milliseconds(),
			MapInputBytes:      j.MapInputBytes,
			ShuffleBytes:       j.MapOutputBytes,
			ReduceOutputBytes:  j.ReduceOutputBytes,
			SpilledBytes:       j.SpilledBytes,
			TaskRetries:        j.TaskRetries,
			TempBytesReclaimed: j.TempBytesReclaimed,
		})
	}
}

// observeQueueWait records one admission→execution-token wait against the
// tenant's /metrics rollup and the adaptive admission controller.
func (s *Server) observeQueueWait(tenant string, wait time.Duration) {
	s.queueWaits.observe(tenant, wait)
	if s.admission != nil {
		s.admission.Observe(wait)
	}
}

// renderRows fills the response's row/count section from a result entry.
// The entry already holds the term table (newResultEntry), so this is
// zero-copy: the response aliases the stored header, terms and cells — no
// re-projection, no re-rendering. A limit keeps the first rows' cells and,
// since terms are numbered in order of first use, the prefix of the terms
// those cells name.
func (s *Server) renderRows(resp *Response, e resultEntry, limit int) {
	resp.IsCount = e.isCount
	resp.Count = e.count
	resp.OutputRecords = e.outRecords
	resp.OutputBytes = e.outBytes
	resp.Header = e.header
	if e.isCount {
		return
	}
	resp.TotalRows = e.totalRows
	resp.Terms, resp.Cells = e.terms, e.cells
	if limit <= 0 || limit >= e.totalRows {
		return
	}
	cells := e.cells[: limit*len(e.header) : limit*len(e.header)]
	used := 0
	for _, c := range cells {
		used = max(used, int(c)+1)
	}
	resp.Terms, resp.Cells = e.terms[:used:used], cells
}

// CacheStats is one cache's rollup for /metrics.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int   `json:"size"`
}

// Metrics is the GET /metrics snapshot.
type Metrics struct {
	UptimeMS           int64 `json:"uptime_ms"`
	Queries            int64 `json:"queries"`
	Succeeded          int64 `json:"succeeded"`
	Failed             int64 `json:"failed"`
	Shed               int64 `json:"shed"`
	Admitted           int64 `json:"admitted"`
	AsyncJobs          int   `json:"async_jobs"`
	MRCycles           int64 `json:"mr_cycles"`
	TempBytesReclaimed int64 `json:"temp_bytes_reclaimed"`
	// TempFiles is the number of attempt-scoped temporaries currently on
	// the DFS; outside the instant an attempt is streaming, it should be 0
	// (the zero-leak invariant a monitor can alert on).
	TempFiles   int        `json:"temp_files"`
	PlanCache   CacheStats `json:"plan_cache"`
	ResultCache CacheStats `json:"result_cache"`
	// Admission is the shed policy's live state: the fixed window, or the
	// adaptive controller's current p95-steered limit.
	Admission AdmissionMetrics `json:"admission"`
	// QueueWait is the per-tenant admission→execution-token wait rollup —
	// the signal the adaptive controller steers on, observable even when
	// only slot peaks used to be visible.
	QueueWait      map[string]QueueWaitStats `json:"queue_wait"`
	Slots          map[string]SlotStats      `json:"slots"`
	SlotGrants     int64                     `json:"slot_grants"`
	Triples        int64                     `json:"triples"`
	DatasetVersion string                    `json:"dataset_version"`
	CatalogVersion string                    `json:"catalog_version"`
	// Ingest-path rollup: accepted batches and their triples, compactions
	// run, the current uncompacted delta-chain length, and the cumulative
	// retained/evicted split of delta-aware result-cache maintenance.
	Ingests         int64 `json:"ingests"`
	IngestedTriples int64 `json:"ingested_triples"`
	Compactions     int64 `json:"compactions"`
	DeltaBlocks     int   `json:"delta_blocks"`
	CacheRetained   int64 `json:"cache_retained"`
	CacheEvicted    int64 `json:"cache_evicted"`
	// Cluster is the execution substrate's health: simulated-DFS node
	// liveness in local mode, per-worker liveness and slot occupancy in
	// distributed mode.
	Cluster ClusterMetrics `json:"cluster"`
}

// AdmissionMetrics is the /metrics view of the shed policy.
type AdmissionMetrics struct {
	// Policy is "fixed" (MaxInflight+MaxQueue window) or "adaptive".
	Policy string `json:"policy"`
	// Window is the current admission limit (running + queued requests).
	Window int64 `json:"window"`
	// Adaptive-only: gradient steps taken, last measured queue-wait p95,
	// and the target it steers to.
	Adjusts   int64   `json:"adjusts,omitempty"`
	LastP95MS float64 `json:"last_p95_ms,omitempty"`
	TargetMS  float64 `json:"target_ms,omitempty"`
}

// ClusterMetrics is the /metrics view of where queries actually execute.
type ClusterMetrics struct {
	// Mode is "local" (in-process engine over the simulated DFS) or
	// "distributed" (jobs run on the hosted master's worker fleet).
	Mode string `json:"mode"`
	// Health is "ok", or "degraded" while the fleet is impaired (see
	// healthOf). Local mode is always "ok".
	Health string `json:"health"`
	// Local mode: simulated DFS data nodes.
	NodesAlive int `json:"nodes_alive,omitempty"`
	NodesTotal int `json:"nodes_total,omitempty"`
	// Distributed mode: the master's worker RPC address and its registered
	// workers.
	MasterAddr        string                 `json:"master_addr,omitempty"`
	WorkersAlive      int                    `json:"workers_alive,omitempty"`
	WorkersRegistered int                    `json:"workers_registered,omitempty"`
	WorkersLost       int64                  `json:"workers_lost,omitempty"`
	ActiveQueries     int                    `json:"active_queries,omitempty"`
	TasksDispatched   int64                  `json:"tasks_dispatched,omitempty"`
	Workers           []cluster.WorkerStatus `json:"workers,omitempty"`
	// Transport-recovery rollup: retries and re-dials the workers' retrying
	// RPC layer absorbed (fleet totals from heartbeats), transient
	// shuffle-fetch retries, and worker re-registrations the master
	// accepted.
	RPCRetries            int64 `json:"rpc_retries,omitempty"`
	Redials               int64 `json:"redials,omitempty"`
	FetchTransientRetries int64 `json:"fetch_transient_retries,omitempty"`
	WorkerReregistrations int64 `json:"worker_reregistrations,omitempty"`
	// AffineLeases counts whole-bucket tasks leased back to the worker that
	// already processed the bucket earlier in the query.
	AffineLeases int64 `json:"affine_leases,omitempty"`
}

// Snapshot assembles the current service metrics.
func (s *Server) Snapshot() Metrics {
	ds := s.wh.View()
	m := Metrics{
		UptimeMS:           time.Since(s.started).Milliseconds(),
		Queries:            s.mQueries.Load(),
		Succeeded:          s.mSucceeded.Load(),
		Failed:             s.mFailed.Load(),
		Shed:               s.mShed.Load(),
		Admitted:           s.admitted.Load(),
		AsyncJobs:          s.jobs.size(),
		MRCycles:           s.mCycles.Load(),
		TempBytesReclaimed: s.mReclaimed.Load(),
		TempFiles:          len(s.dfs.ListPrefix("_tmp/")),
		Triples:            ds.Triples,
		DatasetVersion:     ds.Version,
		CatalogVersion:     ds.CatalogVersion,
		Ingests:            s.mIngests.Load(),
		IngestedTriples:    s.mIngestTriples.Load(),
		Compactions:        s.mCompactions.Load(),
		DeltaBlocks:        len(ds.Source.Deltas),
		CacheRetained:      s.mCacheRetained.Load(),
		CacheEvicted:       s.mCacheEvicted.Load(),
	}
	m.PlanCache.Hits, m.PlanCache.Misses, m.PlanCache.Size = s.plans.stats()
	m.ResultCache.Hits, m.ResultCache.Misses, m.ResultCache.Size = s.results.stats()
	if s.admission != nil {
		limit, adjusts, lastP95 := s.admission.stats()
		m.Admission = AdmissionMetrics{
			Policy:    "adaptive",
			Window:    limit,
			Adjusts:   adjusts,
			LastP95MS: float64(lastP95.Nanoseconds()) / 1e6,
			TargetMS:  float64(s.cfg.Admission.TargetQueueWait.Nanoseconds()) / 1e6,
		}
	} else {
		m.Admission = AdmissionMetrics{Policy: "fixed", Window: int64(s.cfg.MaxInflight + s.cfg.MaxQueue)}
	}
	m.QueueWait = s.queueWaits.snapshot()
	m.Slots, m.SlotGrants = s.pool.Stats()
	m.Cluster = s.clusterMetrics()
	return m
}

// clusterMetrics scrapes the execution substrate: DFS node liveness in
// local mode, the hosted master's worker table in distributed mode.
func (s *Server) clusterMetrics() ClusterMetrics {
	m := s.cfg.Master
	if m == nil {
		return ClusterMetrics{
			Mode:       "local",
			Health:     HealthOK,
			NodesAlive: s.dfs.AliveNodes(),
			NodesTotal: s.dfs.Config().Nodes,
		}
	}
	st := m.Status()
	cm := ClusterMetrics{
		Mode:                  "distributed",
		MasterAddr:            m.Addr(),
		WorkersRegistered:     len(st.Workers),
		WorkersLost:           st.WorkersLost,
		ActiveQueries:         st.ActiveQueries,
		TasksDispatched:       st.TasksDispatched,
		Workers:               st.Workers,
		RPCRetries:            st.RPCRetries,
		Redials:               st.Redials,
		FetchTransientRetries: st.FetchTransientRetries,
		WorkerReregistrations: st.WorkerReregistrations,
		AffineLeases:          st.AffineLeases,
	}
	for _, w := range st.Workers {
		if w.Alive {
			cm.WorkersAlive++
		}
	}
	cm.Health = healthOf(cm)
	return cm
}

// --- async jobs ---

// JobState is the lifecycle of an async query job.
type JobState string

const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStatus is the GET /jobs/<id> view of one async query.
type JobStatus struct {
	ID       string    `json:"id"`
	State    JobState  `json:"state"`
	Error    string    `json:"error,omitempty"`
	Response *Response `json:"response,omitempty"`
}

type asyncJob struct {
	id   string
	mu   sync.Mutex
	st   JobState
	resp *Response
	err  string
	done chan struct{}
}

// maxRetainedJobs bounds the registry: a finished job holds its whole
// *Response (hundreds of KB on a large answer), so a long-lived daemon keeps
// only the newest ones. A client that has not polled a result by the time
// this many later jobs were submitted gets the unknown-id answer.
const maxRetainedJobs = 256

type jobRegistry struct {
	mu    sync.Mutex
	jobs  map[string]*asyncJob
	order []*asyncJob // creation order, oldest first
	seq   int64
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*asyncJob)}
}

// create registers a new running job and, past maxRetainedJobs, drops
// finished jobs oldest-first. Running jobs are never dropped (admission
// already bounds how many there can be), so the registry holds at most
// maxRetainedJobs plus the admission window.
func (r *jobRegistry) create() *asyncJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := &asyncJob{id: fmt.Sprintf("job-%06d", r.seq), st: JobRunning, done: make(chan struct{})}
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	if excess := len(r.order) - maxRetainedJobs; excess > 0 {
		kept := r.order[:0]
		for _, old := range r.order {
			if excess > 0 && old.finished() {
				delete(r.jobs, old.id)
				excess--
				continue
			}
			kept = append(kept, old)
		}
		clear(r.order[len(kept):]) // release the dropped jobs' responses
		r.order = kept
	}
	return j
}

func (r *jobRegistry) get(id string) (*asyncJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

func (r *jobRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

func (j *asyncJob) finish(resp *Response, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.st = JobFailed
		j.err = err.Error()
		j.resp = resp // partial metrics may still be useful
	} else {
		j.st = JobDone
		j.resp = resp
	}
	close(j.done)
}

func (j *asyncJob) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (j *asyncJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.st, Error: j.err, Response: j.resp}
}

// Submit starts a query asynchronously: admission is charged immediately
// (so overload sheds at submit time with ErrOverloaded), then the query
// runs under the server's base context and the usual deadline; the
// returned job ID is pollable via JobStatus / GET /jobs/<id>. The finished
// job's Response carries the term table; Client.Job rebuilds its Rows.
func (s *Server) Submit(req Request) (string, error) {
	release, err := s.admit()
	if err != nil {
		return "", err
	}
	j := s.jobs.create()
	go func() {
		defer release()
		resp, err := s.evaluate(s.baseCtx, req)
		j.finish(resp, err)
	}()
	return j.id, nil
}

// JobStatus looks up an async job.
func (s *Server) JobStatus(id string) (JobStatus, bool) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// WaitJob blocks until the job finishes or ctx dies (for tests).
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	j, ok := s.jobs.get(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return JobStatus{}, context.Cause(ctx)
	}
}
