package main

// adapter.go is the only file of the harness that imports ntga/internal/...
// Workloads, timing, statistics and reporting sit behind the types declared
// here, so a change to the repository's planning or execution API (one
// Plan(q, Source), capability interfaces folded away, a worker that reads its
// own bucket replicas) is an edit to this file alone.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/server"
	"ntga/internal/sparql"
	"ntga/internal/trace"
	tracegen "ntga/internal/workload"
)

const (
	dfsInput  = "data/triples"
	layoutDir = "part/T"
	// engineName is the engine every workload runs; φ_m follows the data size.
	engineName = "ntga-lazy"
)

// ---- inputs ----------------------------------------------------------------

// querySpec is one catalog query.
type querySpec struct{ id, src string }

func catalogQueries(ids ...string) ([]querySpec, error) {
	cqs, err := bench.Series(ids...)
	if err != nil {
		return nil, err
	}
	out := make([]querySpec, len(cqs))
	for i, cq := range cqs {
		out[i] = querySpec{cq.ID, cq.Src}
	}
	return out, nil
}

// bsbmCatalog lists every BSBM query of the catalog (the cache-warming set of
// the served-ingest segment).
func bsbmCatalog() []querySpec {
	var out []querySpec
	for _, cq := range bench.Catalog() {
		if cq.Dataset == "bsbm" {
			out = append(out, querySpec{cq.ID, cq.Src})
		}
	}
	return out
}

// graph is one generated dataset.
type graph struct{ g *rdf.Graph }

// contentSeed fixes what the generated graphs say. Ten BSBM graphs of one
// small scale differ by up to a tenth in how many rows a query returns, which
// would put more spread between seeds than any regression bound allows; the
// run's seed decides how the same content is laid out instead.
const contentSeed = 42

// generateBSBM generates the BSBM graph of the given scale and arranges it by
// seed: the subjects are loaded in seeded random order, each subject's
// triples together, as an entity-clustered dump would hold them. The order
// decides the dictionary's IDs (first occurrence), and with them the split
// boundaries, the sort order of every shuffle and the bucket of every subject.
func generateBSBM(scale int, seed int64) (*graph, error) {
	src, err := bench.Dataset("bsbm", scale, contentSeed)
	if err != nil {
		return nil, err
	}
	var starts []int // first triple of each subject; the generator sorts by subject
	for i, t := range src.Triples {
		if i == 0 || t.S != src.Triples[i-1].S {
			starts = append(starts, i)
		}
	}
	ends := append(starts[1:len(starts):len(starts)], len(src.Triples))
	order := make([]int, len(starts))
	rng := splitmix(uint64(seed))
	for i := range order {
		j := int(rng.next() % uint64(i+1))
		order[i], order[j] = order[j], i
	}
	out := rdf.NewGraph()
	for _, k := range order {
		for _, t := range src.Triples[starts[k]:ends[k]] {
			out.Add(src.Dict.Decode(t.S), src.Dict.Decode(t.P), src.Dict.Decode(t.O))
		}
	}
	return &graph{out}, nil
}

func (g *graph) version() string     { return g.g.Version() }
func (g *graph) encodedBytes() int64 { return bench.GraphBytes(g.g) }
func phiMFor(scale int) int          { return bench.PhiMForScale(scale) }

// splitForIngest deals the graph's subjects, seeded, into a base holding
// baseShare of them and nBatches N-Triples batches holding the rest: every
// triple of one subject lands in the same part, so a batch adds whole new
// entities the way a warehouse receives them. The base is re-interned into a
// fresh dictionary, which is what a loader reading only the base would build.
func (g *graph) splitForIngest(seed int64, baseShare float64, nBatches int) (base *graph, batches [][]byte) {
	rng := splitmix(uint64(seed))
	base = &graph{rdf.NewGraph()}
	bufs := make([]bytes.Buffer, nBatches)
	part := -1 // -1 = base, else batch index
	var last rdf.ID
	for i, t := range g.g.Triples {
		if i == 0 || t.S != last {
			last = t.S
			part = -1
			if rng.float() >= baseShare {
				part = int(rng.next() % uint64(nBatches))
			}
		}
		s, p, o := g.g.Dict.Decode(t.S), g.g.Dict.Decode(t.P), g.g.Dict.Decode(t.O)
		if part < 0 {
			base.g.Add(s, p, o)
		} else {
			fmt.Fprintf(&bufs[part], "%s %s %s .\n", s, p, o)
		}
	}
	for i := range bufs {
		batches = append(batches, bufs[i].Bytes())
	}
	return base, batches
}

// mergedGraph parses base ∪ batches from N-Triples text alone — the fresh
// load the incrementally maintained warehouse must agree with.
func mergedGraph(baseNT []byte, batches [][]byte) (*graph, error) {
	readers := []io.Reader{bytes.NewReader(baseNT)}
	for _, b := range batches {
		readers = append(readers, bytes.NewReader(b))
	}
	g, err := rdf.ReadNTriples(io.MultiReader(readers...))
	if err != nil {
		return nil, err
	}
	return &graph{g}, nil
}

// ntriples serialises the graph.
func (g *graph) ntriples() ([]byte, error) {
	var buf bytes.Buffer
	err := rdf.WriteNTriples(&buf, g.g)
	return buf.Bytes(), err
}

// zipfTrace returns n query indexes whose frequencies follow the repository's
// Zipf(1.1) law over popularity rank (rank = index). The law is applied per
// block of zipfBlock requests — each block holds every query in its exact
// Zipf proportion, in seeded random order — so that two seeds replay the same
// mix in another order instead of two different samples of it.
func zipfTrace(seed int64, n, nQueries int) []int {
	block := zipfBlockCounts(tracegen.Probabilities(nQueries, 1.1))
	rng := splitmix(uint64(seed))
	out := make([]int, 0, n+zipfBlock)
	for len(out) < n {
		start := len(out)
		for q, count := range block {
			for i := 0; i < count; i++ {
				out = append(out, q)
			}
		}
		for i := len(out) - 1; i > start; i-- {
			j := start + int(rng.next()%uint64(i-start+1))
			out[i], out[j] = out[j], out[i]
		}
	}
	return out[:n]
}

const zipfBlock = 200

// zipfBlockCounts rounds probs×zipfBlock to whole requests by largest
// remainder, so the counts sum to zipfBlock.
func zipfBlockCounts(probs []float64) []int {
	counts := make([]int, len(probs))
	left := zipfBlock
	for i, p := range probs {
		counts[i] = int(p * zipfBlock)
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i, p := range probs {
			if p*zipfBlock-float64(counts[i]) > probs[best]*zipfBlock-float64(counts[best]) {
				best = i
			}
		}
		counts[best]++
	}
	return counts
}

// ---- correctness oracle ------------------------------------------------------

// expected is the reference evaluator's answer to one query.
type expected struct {
	rows             int
	idHash, textHash uint64
}

// reference evaluates src over g with the in-memory reference engine. The ID
// hash covers full binding rows and compares against engines that share g's
// dictionary; the text hash covers projected, rendered rows and compares
// across dictionaries and against served responses.
func reference(g *graph, src string, withText bool) (expected, error) {
	q, err := compile(g, src)
	if err != nil {
		return expected{}, err
	}
	rows := refengine.Evaluate(q, g.g)
	ex := expected{rows: len(rows), idHash: hashIDRows(rows)}
	if withText {
		ex.textHash = hashTextRows(renderRows(q, rows))
	}
	return ex, nil
}

func compile(g *graph, src string) (*query.Query, error) {
	pq, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return query.Compile(pq, g.g.Dict)
}

func renderRows(q *query.Query, rows []query.Row) []string {
	projected := q.ProjectAll(rows)
	out := make([]string, len(projected))
	for i, r := range projected {
		out[i] = q.FormatRow(r)
	}
	return out
}

// hashIDRows and hashTextRows are order-insensitive multiset hashes: the sum
// of one FNV-1a per row, so no sort is needed to canonicalise.
func hashIDRows(rows []query.Row) uint64 {
	var sum uint64
	var buf [4]byte
	for _, r := range rows {
		h := fnv.New64a()
		for _, id := range r {
			buf[0], buf[1], buf[2], buf[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
			h.Write(buf[:])
		}
		sum += h.Sum64()
	}
	return sum ^ uint64(len(rows))
}

func hashTextRows(rows []string) uint64 {
	var sum uint64
	for _, r := range rows {
		h := fnv.New64a()
		io.WriteString(h, r)
		sum += h.Sum64()
	}
	return sum ^ uint64(len(rows))
}

// ---- one executed query ------------------------------------------------------

// opCounts are the exact per-query counters an execution reports.
type opCounts struct {
	cycles, mapOnlyJobs, tasks                         int64
	mapInputBytes, shuffleBytes, dfsWriteBytes         int64
	spilledBytes, mergePasses, peakSortBuffer, retries int64
	estShuffleBytes, peakDFS                           int64
	straggler, byteSkew                                float64
	workflow, jobs, server                             time.Duration
	resultCacheHit, planCacheHit                       bool
}

func countsOf(wf *mapreduce.WorkflowMetrics) opCounts {
	c := opCounts{
		cycles:         int64(len(wf.Jobs)),
		mapInputBytes:  wf.TotalMapInputBytes(),
		shuffleBytes:   wf.TotalMapOutputBytes(),
		dfsWriteBytes:  wf.TotalReduceOutputBytes(),
		spilledBytes:   wf.TotalSpilledBytes(),
		mergePasses:    wf.TotalMergePasses(),
		peakSortBuffer: wf.MaxPeakSortBufferBytes(),
		retries:        wf.TotalTaskRetries(),
		straggler:      wf.MaxStragglerRatio(),
		byteSkew:       wf.MaxReduceByteSkew(),
		workflow:       wf.Duration,
	}
	for _, j := range wf.Jobs {
		if j.MapOnly {
			c.mapOnlyJobs++
		}
		c.tasks += int64(j.MapTasks + j.ReduceTasks)
		c.jobs += j.Duration
	}
	return c
}

// opResult is one query's answer and counters.
type opResult struct {
	rows   int
	counts opCounts
	q      *query.Query
	full   []query.Row // local and cluster runs
	text   []string    // served and cluster runs
}

func (r *opResult) idHash() uint64 { return hashIDRows(r.full) }

func (r *opResult) textHash() uint64 {
	if r.text != nil || r.q == nil {
		return hashTextRows(r.text)
	}
	return hashTextRows(renderRows(r.q, r.full))
}

// ---- tracing -------------------------------------------------------------------

// tracer wraps the repository's span recorder. The engine, server and master
// record their own trees into it through their public Tracer config; the
// harness adds one root span around each call it makes. A nil *tracer records
// nothing.
type tracer struct{ t *trace.Tracer }

func newTracer() *tracer { return &tracer{trace.New()} }

func (t *tracer) inner() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.t
}

// harnessKind marks the spans the harness records itself.
const harnessKind = "harness"

// begin opens a harness span and returns the call that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	sp := t.t.Start(trace.Kind(harnessKind), name)
	return sp.Finish
}

// span is the harness's own copy of one recorded span.
type span struct {
	kind, name string
	start, end time.Time
	children   []*span
}

func (t *tracer) spans() []*span {
	if t == nil {
		return nil
	}
	var conv func(s *trace.Span) *span
	conv = func(s *trace.Span) *span {
		out := &span{kind: string(s.Kind), name: s.Name, start: s.Start, end: s.End}
		for _, c := range s.Children() {
			out.children = append(out.children, conv(c))
		}
		return out
	}
	var out []*span
	for _, r := range t.t.Roots() {
		out = append(out, conv(r))
	}
	return out
}

func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- local engine (batch_flat, batch_bucketed, ingest_mixed) -------------------

// dfsStats is a snapshot of the simulated DFS's cumulative counters.
type dfsStats struct {
	read, written, spillWritten, used int64
}

func statsOf(d *hdfs.DFS) dfsStats {
	m := d.Metrics()
	return dfsStats{read: m.BytesRead, written: m.BytesWritten, spillWritten: m.SpillBytesWritten, used: d.Used()}
}

// localEngine is the in-process MapReduce engine over a fresh simulated DFS.
type localEngine struct {
	g       *graph
	mr      *mapreduce.Engine
	eng     engine.QueryEngine
	cat     *plan.Catalog
	part    *plan.Partitioning
	queries map[string]*query.Query
	srcs    map[string]string
	dictLen int
	store   *ingest.Store
}

func newLocalEngine(g *graph, phiM int, sortBuffer int64, tr *tracer) (*localEngine, error) {
	eng, err := bench.EngineByName(engineName, phiM)
	if err != nil {
		return nil, err
	}
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 8}),
		mapreduce.EngineConfig{SortBufferBytes: sortBuffer, Tracer: tr.inner()})
	return &localEngine{g: g, mr: mr, eng: eng}, nil
}

func (e *localEngine) load() error { return engine.LoadGraph(e.mr.DFS(), dfsInput, e.g.g) }

func (e *localEngine) buildCatalog() { e.cat = plan.FromGraph(e.g.g) }

func (e *localEngine) buildLayout(buckets int) error {
	part, err := plan.BuildPartitionLayout(e.mr, dfsInput, layoutDir, buckets, e.g.g.Version())
	e.part = part
	return err
}

func (e *localEngine) compileAll(queries []querySpec) error {
	e.queries = make(map[string]*query.Query, len(queries))
	e.srcs = make(map[string]string, len(queries))
	for _, qs := range queries {
		q, err := compile(e.g, qs.src)
		if err != nil {
			return fmt.Errorf("%s: %w", qs.id, err)
		}
		e.queries[qs.id], e.srcs[qs.id] = q, qs.src
	}
	e.dictLen = e.g.g.Dict.Len()
	return nil
}

func (e *localEngine) dfsStats() dfsStats { return statsOf(e.mr.DFS()) }

func (e *localEngine) result(q *query.Query, res *engine.Result, err error) (opResult, error) {
	if err != nil {
		return opResult{}, err
	}
	c := countsOf(&res.Workflow)
	c.peakDFS = res.PeakDFSUsed
	return opResult{rows: len(res.Rows), counts: c, q: q, full: res.Rows}, nil
}

// run executes one query: over the bucketed layout when one was built, else
// over the flat triple file.
func (e *localEngine) run(id string) (opResult, error) {
	q := e.queries[id]
	res, err := engine.RunMaybePartitioned(e.eng, e.mr, q, dfsInput, e.part)
	return e.result(q, res, err)
}

// estimateShuffle prices the flat plan of one query against the catalog.
func (e *localEngine) estimateShuffle(id string) (int64, error) {
	var cl engine.Cleaner
	p, err := e.eng.Plan(e.queries[id], dfsInput, &cl, nil)
	if err != nil {
		return 0, err
	}
	cost, _ := plan.Estimate(e.cat, e.queries[id], p)
	return cost.ShuffleBytes, nil
}

// runWith executes one query on another engine over the same DFS (the
// reproduction guard: NTGA-Eager and the Hive-style baseline).
func (e *localEngine) runWith(engName, id string) (opResult, error) {
	eng, err := bench.EngineByName(engName, 0)
	if err != nil {
		return opResult{}, err
	}
	res, err := eng.Run(e.mr, e.queries[id], dfsInput)
	return e.result(e.queries[id], res, err)
}

// ---- warehouse: the ingest / compaction flow of ntga-run at library level ------

func (e *localEngine) openStore() error {
	st, err := ingest.Init(e.mr.DFS(), dfsInput, e.g.g)
	e.store = st
	return err
}

// ingestFacts describes one accepted batch.
type ingestFacts struct {
	triples    int
	blockBytes int64
}

func (e *localEngine) ingest(batch []byte) (ingestFacts, error) {
	res, err := e.store.Ingest(bytes.NewReader(batch))
	if err != nil {
		return ingestFacts{}, err
	}
	return ingestFacts{triples: len(res.Triples), blockBytes: res.Block.Bytes}, nil
}

// compact folds the delta chain and rewrites the affected layout buckets.
func (e *localEngine) compact() (bucketsRewritten int, err error) {
	res, err := e.store.Compact(e.mr, ingest.CompactOptions{LayoutDir: layoutDir})
	if err != nil {
		return 0, err
	}
	return res.BucketsRewritten, nil
}

func (e *localEngine) chainDepth() int { return len(e.store.DeltaFiles()) }

// runWarehouse executes one query over base ∪ deltas exactly as ntga-run does:
// the layout is reloaded through its manifest, and a stale one falls back to
// the flat plan.
func (e *localEngine) runWarehouse(id string) (opResult, error) {
	if n := e.g.g.Dict.Len(); n != e.dictLen {
		// A batch may mint terms a query names; compile against the grown
		// dictionary, as every caller of the write path must.
		for qid, src := range e.srcs {
			q, err := compile(e.g, src)
			if err != nil {
				return opResult{}, err
			}
			e.queries[qid] = q
		}
		e.dictLen = n
	}
	man := e.store.Manifest()
	part, err := plan.LoadPartitioning(e.mr.DFS(), layoutDir, e.store.Version())
	if err != nil {
		part = nil
	}
	q := e.queries[id]
	res, err := engine.RunWithDeltas(e.eng, e.mr, q, man.Base, man.DeltaFiles(), part)
	return e.result(q, res, err)
}

// ---- served queries (serve_uncached) -----------------------------------------

// serveTarget is the query daemon behind a real loopback HTTP listener.
type serveTarget struct {
	s         *server.Server
	hs        *httptest.Server
	c         *server.Client
	transport *http.Transport
	respBytes atomic.Int64
}

type countingRoundTripper struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (c countingRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func newServeTarget(g *graph, cacheEntries int, tr *tracer) (*serveTarget, error) {
	s, err := server.New(server.Config{ResultCacheEntries: cacheEntries, Tracer: tr.inner()}, g.g)
	if err != nil {
		return nil, err
	}
	t := &serveTarget{s: s, hs: httptest.NewServer(s.Handler()), transport: &http.Transport{}}
	t.c = server.NewClient(t.hs.URL)
	t.c.HTTPClient = &http.Client{Transport: countingRoundTripper{t.transport, &t.respBytes}}
	return t, nil
}

func (t *serveTarget) close() {
	t.transport.CloseIdleConnections()
	t.hs.Close()
	t.s.Close()
}

func serveResult(resp *server.Response, err error) (opResult, error) {
	if err != nil {
		return opResult{}, err
	}
	c := opCounts{
		cycles:          int64(resp.Cycles),
		shuffleBytes:    resp.ShuffleBytes,
		estShuffleBytes: resp.EstShuffleBytes,
		retries:         resp.TaskRetries,
		server:          time.Duration(resp.DurationMS) * time.Millisecond,
		resultCacheHit:  resp.Cache == "hit",
		planCacheHit:    resp.PlanCache == "hit",
	}
	for _, j := range resp.Jobs {
		c.mapInputBytes += j.MapInputBytes
		c.dfsWriteBytes += j.ReduceOutputBytes
		c.spilledBytes += j.SpilledBytes
		c.jobs += time.Duration(j.DurationMS) * time.Millisecond
	}
	return opResult{rows: resp.TotalRows, counts: c, text: resp.Rows}, nil
}

func serveRequest(src string, noCache bool) server.Request {
	return server.Request{Query: src, NoCache: noCache, Metrics: true}
}

// httpQuery sends one query over loopback HTTP.
func (t *serveTarget) httpQuery(ctx context.Context, src string, noCache bool) (opResult, error) {
	return serveResult(t.c.Query(ctx, serveRequest(src, noCache)))
}

// evaluate runs one query in process: the same path minus HTTP and JSON.
func (t *serveTarget) evaluate(ctx context.Context, src string, noCache bool) (opResult, error) {
	return serveResult(t.s.Evaluate(ctx, serveRequest(src, noCache)))
}

// serveSnapshot is the slice of the daemon's /metrics the harness reports.
type serveSnapshot struct {
	shed, mrCycles, queries     int64
	planHits, planMisses        int64
	resultHits, resultMisses    int64
	queueWaitP95MS              float64
	cacheRetained, cacheEvicted int64
}

func (t *serveTarget) snapshot() serveSnapshot {
	m := t.s.Snapshot()
	snap := serveSnapshot{
		shed: m.Shed, mrCycles: m.MRCycles, queries: m.Queries,
		planHits: m.PlanCache.Hits, planMisses: m.PlanCache.Misses,
		resultHits: m.ResultCache.Hits, resultMisses: m.ResultCache.Misses,
		cacheRetained: m.CacheRetained, cacheEvicted: m.CacheEvicted,
	}
	for _, qw := range m.QueueWait {
		if qw.P95MS > snap.queueWaitP95MS {
			snap.queueWaitP95MS = qw.P95MS
		}
	}
	return snap
}

// postIngest sends one N-Triples batch to /ingest.
func (t *serveTarget) postIngest(ctx context.Context, batch []byte) error {
	_, err := t.c.Ingest(ctx, bytes.NewReader(batch))
	return err
}

// ---- loopback cluster (cluster_loopback) ---------------------------------------

// wireCounter counts the connections a listener accepts and every byte that
// crosses them in either direction.
type wireCounter struct{ bytes, conns atomic.Int64 }

type countingTransport struct {
	cluster.Transport
	w *wireCounter
}

func (t countingTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{ln, t.w}, nil
}

type countingListener struct {
	net.Listener
	w *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.w.conns.Add(1)
	return countingConn{c, l.w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

// clusterTarget is an in-process master and its workers over real TCP
// loopback. Everything the master's listener accepts (client, leases, split
// reads, reports) counts as master wire; everything a worker's listener
// accepts (shuffle fetches) counts as peer wire.
type clusterTarget struct {
	m          *cluster.Master
	workers    []*cluster.Worker
	c          *cluster.Client
	phiM       int
	masterWire wireCounter
	peerWire   wireCounter
}

func newClusterTarget(g *graph, workers, buckets, phiM int, tr *tracer) (*clusterTarget, error) {
	t := &clusterTarget{phiM: phiM}
	m, err := cluster.NewMaster(cluster.MasterConfig{
		PartitionBuckets: buckets,
		LeaseEvery:       2 * time.Millisecond,
		Tracer:           tr.inner(),
		Transport:        countingTransport{cluster.TCP(), &t.masterWire},
	}, g.g)
	if err != nil {
		return nil, err
	}
	t.m = m
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.close()
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{}, countingTransport{cluster.TCP(), &t.peerWire}, m.Addr())
		if err := w.Start(); err != nil {
			t.close()
			return nil, err
		}
		t.workers = append(t.workers, w)
	}
	if t.c, err = cluster.Dial(nil, m.Addr()); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close stops the workers, waits for their loops to exit, and stops the master.
func (t *clusterTarget) close() {
	for _, w := range t.workers {
		w.Close()
	}
	for _, w := range t.workers {
		w.Wait()
	}
	if t.c != nil {
		t.c.Close()
	}
	t.m.Close()
}

func (t *clusterTarget) run(ctx context.Context, src string) (opResult, error) {
	reply, err := t.c.Run(ctx, &cluster.RunArgs{Query: src, Engine: engineName, PhiM: t.phiM})
	if err != nil {
		return opResult{}, err
	}
	c := countsOf(&reply.Workflow)
	c.peakDFS = reply.PeakDFSUsed
	return opResult{rows: reply.TotalRows, counts: c, full: reply.Rows, text: reply.RowsText}, nil
}

// clusterStats are the master's scheduler and transport totals.
type clusterStats struct {
	masterWireBytes, peerWireBytes, masterConns int64
	tasksDispatched, affineLeases               int64
	rpcRetries, redials                         int64
}

func (t *clusterTarget) stats() clusterStats {
	st := t.m.Status()
	retries, redials := t.c.Stats()
	return clusterStats{
		masterWireBytes: t.masterWire.bytes.Load(), peerWireBytes: t.peerWire.bytes.Load(),
		masterConns:     t.masterWire.conns.Load(),
		tasksDispatched: st.TasksDispatched, affineLeases: st.AffineLeases,
		rpcRetries: st.RPCRetries + retries, redials: st.Redials + redials,
	}
}

func (t *clusterTarget) dfsStats() dfsStats { return statsOf(t.m.DFS()) }

// ---- layer micro-benchmarks ---------------------------------------------------

// micro is one public function of one layer, timed in a loop over the
// workload's own data: run does one batch of calls and returns how many units
// (calls, rows, triples or bytes) it processed.
type micro struct {
	metric string
	run    func() (units float64, err error)
}

// queryMicros time the per-request front end — parse, compile, plan, optimise —
// over the workload's distinct queries.
func queryMicros(e *localEngine, queries []querySpec) []micro {
	n := float64(len(queries))
	parsed := make([]*sparql.Query, len(queries))
	for i, qs := range queries {
		parsed[i] = sparql.MustParse(qs.src)
	}
	return []micro{
		{"sparql.parse_us", func() (float64, error) {
			for _, qs := range queries {
				if _, err := sparql.Parse(qs.src); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
		{"query.compile_us", func() (float64, error) {
			for _, pq := range parsed {
				if _, err := query.Compile(pq, e.g.g.Dict); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
		{"plan.plan_us", func() (float64, error) {
			for _, qs := range queries {
				var cl engine.Cleaner
				if _, err := e.eng.Plan(e.queries[qs.id], dfsInput, &cl, nil); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
		{"plan.optimize_us", func() (float64, error) {
			for _, qs := range queries {
				if _, err := plan.Optimize(e.cat, e.queries[qs.id]); err != nil {
					return 0, err
				}
			}
			return n, nil
		}},
	}
}

// renderMicros time the row-rendering chain on real result rows.
func renderMicros(res opResult) []micro {
	rows := res.q.ProjectAll(res.full)
	if len(rows) > 2000 {
		rows = rows[:2000]
	}
	var ids []rdf.ID
	for _, r := range rows {
		ids = append(ids, r...)
	}
	dict := res.q.Dict
	terms := make([]rdf.Term, len(ids))
	for i, id := range ids {
		terms[i] = dict.Decode(id)
	}
	var sink int
	return []micro{
		{"query.format_row_ns", func() (float64, error) {
			for _, r := range rows {
				sink += len(res.q.FormatRow(r))
			}
			return float64(len(rows)), nil
		}},
		{"rdf.dict_decode_ns", func() (float64, error) {
			for _, id := range ids {
				sink += int(dict.Decode(id).Kind)
			}
			return float64(len(ids)), nil
		}},
		{"rdf.term_string_ns", func() (float64, error) {
			for _, t := range terms {
				sink += len(t.String())
			}
			return float64(len(terms)), nil
		}},
	}
}

// dataMicros time the layers every scan and every operator goes through —
// codec, DFS streams, and the NTGA operators on star's triplegroups.
func dataMicros(e *localEngine, starQuery string) ([]micro, error) {
	triples := e.g.g.Triples
	encoded := make([][]byte, len(triples))
	var encodedBytes float64
	for i, t := range triples {
		encoded[i] = codec.EncodeTriple(t)
		encodedBytes += float64(len(encoded[i]))
	}
	scratch := hdfs.New(hdfs.Config{Nodes: 8})
	if err := scratch.WriteFile("read", encoded); err != nil {
		return nil, err
	}

	q := e.queries[starQuery]
	var star *query.Star
	for _, st := range q.Stars {
		if st.HasUnbound() {
			star = st
			break
		}
	}
	if star == nil {
		return nil, fmt.Errorf("%s has no unbound-property star", starQuery)
	}
	groups := core.Group(triples)
	var anns []core.AnnTG
	for _, tg := range groups {
		if a, ok := core.FilterForStar(tg, star); ok {
			anns = append(anns, a)
		}
	}
	annBytes := make([][]byte, len(anns))
	for i, a := range anns {
		annBytes[i] = core.EncodeAnnTG(a)
	}
	var sink int
	return []micro{
		{"codec.encode_triple_ns", func() (float64, error) {
			for _, t := range triples {
				sink += len(codec.EncodeTriple(t))
			}
			return float64(len(triples)), nil
		}},
		{"codec.decode_triple_ns", func() (float64, error) {
			for _, p := range encoded {
				t, err := codec.DecodeTriple(p)
				if err != nil {
					return 0, err
				}
				sink += int(t.S)
			}
			return float64(len(encoded)), nil
		}},
		{"hdfs.write_mb_per_s", func() (float64, error) {
			w, err := scratch.Create("write")
			if err != nil {
				return 0, err
			}
			for _, p := range encoded {
				if err := w.Append(p); err != nil {
					w.Abort()
					return 0, err
				}
			}
			if err := w.Close(); err != nil {
				return 0, err
			}
			return encodedBytes, scratch.Delete("write")
		}},
		{"hdfs.read_mb_per_s", func() (float64, error) {
			r, err := scratch.Open("read")
			if err != nil {
				return 0, err
			}
			for {
				rec, err := r.Next()
				if err == io.EOF {
					return encodedBytes, nil
				}
				if err != nil {
					return 0, err
				}
				sink += len(rec)
			}
		}},
		{"core.group_ns_per_triple", func() (float64, error) {
			sink += len(core.Group(triples))
			return float64(len(triples)), nil
		}},
		{"core.group_filter_ns_per_group", func() (float64, error) {
			for _, tg := range groups {
				if _, ok := core.FilterForStar(tg, star); ok {
					sink++
				}
			}
			return float64(len(groups)), nil
		}},
		{"core.anntg_encode_ns", func() (float64, error) {
			for _, a := range anns {
				sink += len(core.EncodeAnnTG(a))
			}
			return float64(len(anns)), nil
		}},
		{"core.anntg_decode_ns", func() (float64, error) {
			for _, p := range annBytes {
				if _, err := core.DecodeAnnTG(p); err != nil {
					return 0, err
				}
			}
			return float64(len(annBytes)), nil
		}},
		{"core.expand_ns_per_row", func() (float64, error) {
			rows := 0
			for _, a := range anns {
				rows += len(core.Expand(q, a))
			}
			return float64(rows), nil
		}},
	}, nil
}

// ingestMicros time the write path's front end on the workload's batches.
func ingestMicros(g *graph, batches [][]byte) []micro {
	var batchBytes float64
	for _, b := range batches {
		batchBytes += float64(len(b))
	}
	return []micro{
		{"rdf.ntriples_parse_mb_per_s", func() (float64, error) {
			for _, b := range batches {
				if err := rdf.ReadNTriplesInto(bytes.NewReader(b), rdf.NewGraph()); err != nil {
					return 0, err
				}
			}
			return batchBytes, nil
		}},
		{"ingest.validate_mb_per_s", func() (float64, error) {
			for _, b := range batches {
				if _, err := ingest.ValidateBatch(bytes.NewReader(b)); err != nil {
					return 0, err
				}
			}
			return batchBytes, nil
		}},
		{"plan.catalog_fold_ns_per_triple", func() (float64, error) {
			st := plan.NewCatalogState()
			for _, t := range g.g.Triples {
				st.AddTriple(g.g.Dict, t)
			}
			return float64(len(g.g.Triples)), nil
		}},
	}
}
