package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// sizes are the inputs' dimensions; -smoke shrinks them.
type sizes struct {
	batchScale   int // BSBM scale of batch_flat and batch_bucketed
	serveScale   int
	ingestScale  int     // the whole warehouse: base plus every batch
	ingestBase   float64 // share of the subjects the base holds
	clusterScale int
	setups       int           // set-ups per run; setup_s is their median
	maxPasses    int           // 0 = as many as fit before the deadline
	traceEvents  int           // length of the generated Zipf trace
	microBudget  time.Duration // per layer micro-benchmark, and at least
	microIters   int           // this many repetitions
}

var fullSizes = sizes{
	batchScale: 6, serveScale: 1, ingestScale: 6, ingestBase: 4.0 / 6, clusterScale: 2,
	setups: 7, traceEvents: 20000, microBudget: 100 * time.Millisecond, microIters: 3,
}

var smokeSizes = sizes{
	batchScale: 1, serveScale: 1, ingestScale: 1, ingestBase: 0.5, clusterScale: 1,
	setups: 2, maxPasses: 1, traceEvents: 48, microBudget: 5 * time.Millisecond, microIters: 1,
}

const (
	layoutBuckets  = 8
	sortBufferSize = 64 << 10 // batch_flat: smaller than the map output, so it spills
	ingestBatches  = 8        // one episode: 8 rounds, a compaction every 4th
	compactEvery   = 4
	clusterWorkers = 3
	serveClients   = 2 // = nproc of the reference box
)

// workload is one of the five op sequences. A fresh setup builds everything
// the sequence needs from the seed; verify warms it up and checks every
// distinct query against the oracle; timed runs the closed loop.
type workload interface {
	common() *base
	setup() error
	verify() (checks, failed int, errs []string)
	timed(sec *section, until time.Time)
	// layer adds the workload's own per-layer numbers after a timed section.
	layer(sec *section, out *metricSet)
	// micros lists the layer micro-benchmarks that run on this workload's data.
	micros() ([]micro, error)
	segments(plain *section, derived map[string]float64, out *metricSet) error
	close()
}

// base is what every workload shares.
type base struct {
	name    string
	seed    int64
	sz      sizes
	tr      *tracer // set for the traced pass
	queries []querySpec
	want    map[string]expected // the oracle's answers, computed once per run

	setupS []float64            // seconds per set-up
	stages map[string][]float64 // ms per named set-up stage
	inputs string               // hash of everything generated from the seed
}

func (b *base) common() *base { return b }

// stage times one named step of set-up.
func (b *base) stage(name string, fn func() error) error {
	end := b.tr.begin("setup " + name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.stages[name] = append(b.stages[name], ms(d))
	return nil
}

func (b *base) stageMS(name string) (float64, int) {
	return median(b.stages[name]), len(b.stages[name])
}

// setInputs hashes everything generated from the seed, once per run: every
// set-up regenerates the same inputs, and hashing them is not set-up work.
func (b *base) setInputs(parts func() []string) {
	if b.inputs != "" {
		return
	}
	h := fnv.New64a()
	for _, q := range b.queries {
		fmt.Fprintf(h, "%s\x00%s\x00", q.id, q.src)
	}
	for _, p := range parts() {
		fmt.Fprintf(h, "%s\x00", p)
	}
	b.inputs = fmt.Sprintf("%016x", h.Sum64())
}

// passes repeats one pass of the op sequence until the deadline.
func (b *base) passes(until time.Time, pass func()) {
	for i := 0; (b.sz.maxPasses == 0 || i < b.sz.maxPasses) && time.Now().Before(until); i++ {
		pass()
	}
}

// verifyEach checks every query of the workload and collects the failures.
func (b *base) verifyEach(check func(q querySpec) error) (checks, failed int, errs []string) {
	for _, q := range b.queries {
		checks++
		if err := check(q); err != nil {
			failed++
			errs = append(errs, fmt.Sprintf("%s/%s: %v", b.name, q.id, err))
		}
	}
	return checks, failed, errs
}

// segments runs what a workload measures only for a layer's numbers, after
// its micro-benchmarks; derived holds the micro timings that are not metrics
// themselves. Most workloads have none.
func (b *base) segments(plain *section, derived map[string]float64, out *metricSet) error {
	return nil
}

// oracle returns the reference answer for one of the workload's queries over
// g, evaluating it once per run.
func (b *base) oracle(g *graph, q querySpec, withText bool) (expected, error) {
	if ex, ok := b.want[q.id]; ok {
		return ex, nil
	}
	ex, err := reference(g, q.src, withText)
	if err == nil {
		b.want[q.id] = ex
	}
	return ex, err
}

// freshSetup tears the workload down, sets it up again and records how long
// set-up took.
func freshSetup(w workload) error {
	b := w.common()
	w.close()
	end := b.tr.begin("setup")
	start := time.Now()
	err := w.setup()
	b.setupS = append(b.setupS, time.Since(start).Seconds())
	end()
	return err
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	b := base{name: name, seed: seed, sz: sz, want: make(map[string]expected), stages: make(map[string][]float64)}
	var ids []string
	var w workload
	switch name {
	case "batch_flat":
		// B6 is left out of the op sequence: the reference evaluator needs
		// seconds for it at this scale. Seven queries, an odd count, also keep
		// the median inside one query's latencies instead of between two.
		ids = []string{"Q1a", "B0", "B1", "B2", "B3", "B5", "B7"}
		w = &batchWorkload{base: &b}
	case "batch_bucketed":
		ids = []string{"Q1a", "B0", "B1", "B2", "B3", "B4", "B5"}
		w = &batchWorkload{base: &b, bucketed: true}
	case "serve_uncached":
		// Popularity order. B5, the slowest, holds rank 4 (8.7% of requests)
		// so that p95 falls inside its latencies, not on their edge.
		ids = []string{"Q1a", "Q2a", "Q3a", "B5", "B0", "B1", "B2", "B7"}
		w = &serveWorkload{base: &b}
	case "ingest_mixed":
		ids = []string{"Q1a", "B0", "B1", "B5", "B7"}
		w = &ingestWorkload{base: &b}
	case "cluster_loopback":
		// Map-only over the master's layout: Q1a, B0, B1, B3, B5. Shuffled
		// (split reads through the master, worker-to-worker fetch): Q3a, B7.
		ids = []string{"Q1a", "B0", "B1", "B3", "B5", "Q3a", "B7"}
		w = &clusterWorkload{base: &b}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	var err error
	b.queries, err = catalogQueries(ids...)
	return w, err
}

// ---- batch_flat, batch_bucketed ------------------------------------------------

type batchWorkload struct {
	*base
	bucketed bool
	g        *graph
	le       *localEngine
	dfs0     dfsStats
}

func (w *batchWorkload) setup() (err error) {
	if err = w.stage("datagen.generate", func() error {
		w.g, err = generateBSBM(w.sz.batchScale, w.seed)
		return err
	}); err != nil {
		return err
	}
	if w.le, err = newLocalEngine(w.g, phiMFor(w.sz.batchScale), sortBufferSize, w.tr); err != nil {
		return err
	}
	if err = w.stage("engine.load_graph", w.le.load); err != nil {
		return err
	}
	if err = w.stage("plan.catalog_build", func() error { w.le.buildCatalog(); return nil }); err != nil {
		return err
	}
	if w.bucketed {
		if err = w.stage("plan.layout_build", func() error { return w.le.buildLayout(layoutBuckets) }); err != nil {
			return err
		}
	}
	w.setInputs(func() []string { return []string{w.g.version()} })
	return w.le.compileAll(w.queries)
}

func (w *batchWorkload) verify() (checks, failed int, errs []string) {
	return w.verifyEach(func(q querySpec) error {
		ex, err := w.oracle(w.g, q, false)
		if err != nil {
			return err
		}
		res, err := w.le.run(q.id)
		if err != nil {
			return err
		}
		if c := res.counts; w.bucketed && (c.shuffleBytes != 0 || c.mapOnlyJobs != c.cycles) {
			return fmt.Errorf("%d shuffle bytes, %d of %d jobs map-only over the bucketed layout", c.shuffleBytes, c.mapOnlyJobs, c.cycles)
		}
		return checkRows(res.rows, res.idHash(), ex.rows, ex.idHash)
	})
}

func checkRows(rows int, hash uint64, wantRows int, wantHash uint64) error {
	if rows != wantRows || hash != wantHash {
		return fmt.Errorf("%d rows (hash %016x), oracle has %d (hash %016x)", rows, hash, wantRows, wantHash)
	}
	return nil
}

func (w *batchWorkload) timed(sec *section, until time.Time) {
	w.dfs0 = w.le.dfsStats()
	w.passes(until, func() {
		for _, q := range w.queries {
			id := q.id
			sec.query(id, w.want[id].rows, func() (opResult, error) { return w.le.run(id) })
		}
	})
}

func (w *batchWorkload) layer(sec *section, out *metricSet) {
	dfsLayer(sec, out, w.dfs0, w.le.dfsStats())
	if w.bucketed || sec.sum.shuffleBytes == 0 {
		return
	}
	// Estimated ÷ actual shuffle bytes of the flat plans, over one pass.
	var est int64
	for _, q := range w.queries {
		e, err := w.le.estimateShuffle(q.id)
		if err != nil {
			return
		}
		est += e
	}
	passes := float64(sec.queries()) / float64(len(w.queries))
	out.set("plan.est_shuffle_ratio", float64(est)*passes/float64(sec.sum.shuffleBytes), len(w.queries))
}

// dfsLayer reports the DFS's cumulative counters over a section.
func dfsLayer(sec *section, out *metricSet, from, to dfsStats) {
	n := sec.queries()
	out.set("hdfs.read_bytes_per_query", sec.perQuery(float64(to.read-from.read)), n)
	out.set("hdfs.write_bytes_per_query", sec.perQuery(float64(to.written-from.written)), n)
	out.set("hdfs.spill_bytes_per_query", sec.perQuery(float64(to.spillWritten-from.spillWritten)), n)
	out.set("hdfs.peak_used_bytes", float64(sec.sum.peakDFS), n)
	out.set("hdfs.used_bytes_end", float64(to.used), 1)
}

func (w *batchWorkload) micros() ([]micro, error) {
	ms, err := dataMicros(w.le, "B1")
	if err != nil {
		return nil, err
	}
	return append(ms, queryMicros(w.le, w.queries)...), nil
}

// segments is the reproduction guard on batch_flat's graph: it times NTGA-Eager
// and the Hive-style baseline, reports the paper's headline — NTGA-Lazy
// shuffles a fraction of what Hive does on B1, B3, B5 — and times B6, which
// the op sequence leaves out. Hive's rows are checked against the oracle's,
// and B6's against Hive's.
func (w *batchWorkload) segments(_ *section, _ map[string]float64, out *metricSet) error {
	if w.bucketed {
		return nil
	}
	b6, err := catalogQueries("B6")
	if err != nil {
		return err
	}
	if err := w.le.compileAll(append(append([]querySpec(nil), w.queries...), b6...)); err != nil {
		return err
	}
	// timedRuns runs id on engName reps times and returns the last result and
	// the median latency.
	timedRuns := func(engName, id string, reps int) (opResult, float64, error) {
		var res opResult
		var lat []float64
		for i := 0; i < reps; i++ {
			end := w.tr.begin(engName + " " + id)
			start := time.Now()
			var err error
			if engName == engineName {
				res, err = w.le.run(id)
			} else {
				res, err = w.le.runWith(engName, id)
			}
			lat = append(lat, ms(time.Since(start)))
			end()
			if err != nil {
				return res, 0, fmt.Errorf("%s %s: %w", engName, id, err)
			}
		}
		return res, median(lat), nil
	}
	const reps = 3
	var lazy, hive int64
	for _, id := range []string{"B1", "B3", "B5"} {
		l, _, err := timedRuns(engineName, id, 1)
		if err != nil {
			return err
		}
		hiveReps := reps
		if id == "B3" {
			hiveReps = 1 // only its shuffle bytes are reported
		}
		h, lat, err := timedRuns("hive", id, hiveReps)
		if err != nil {
			return err
		}
		if err := checkRows(h.rows, h.idHash(), w.want[id].rows, w.want[id].idHash); err != nil {
			return fmt.Errorf("hive %s: %w", id, err)
		}
		if id != "B3" {
			out.set("relmr.hive_run_ms."+id, lat, hiveReps)
		}
		lazy += l.counts.shuffleBytes
		hive += h.counts.shuffleBytes
	}
	out.set("ntgamr.shuffle_vs_hive_ratio", float64(lazy)/float64(hive), 3)

	e, lat, err := timedRuns("ntga-eager", "B1", reps)
	if err != nil {
		return err
	}
	if err := checkRows(e.rows, e.idHash(), w.want["B1"].rows, w.want["B1"].idHash); err != nil {
		return fmt.Errorf("ntga-eager B1: %w", err)
	}
	out.set("ntgamr.eager_run_ms.B1", lat, reps)

	h, _, err := timedRuns("hive", "B6", 1)
	if err != nil {
		return err
	}
	res, lat, err := timedRuns(engineName, "B6", reps)
	if err != nil {
		return err
	}
	if err := checkRows(res.rows, res.idHash(), h.rows, h.idHash()); err != nil {
		return fmt.Errorf("B6 against hive: %w", err)
	}
	out.set("engine.run_ms.B6", lat, reps)
	return nil
}

func (w *batchWorkload) close() { w.le, w.g = nil, nil }

// ---- serve_uncached ------------------------------------------------------------

type serveWorkload struct {
	*base
	g      *graph
	t      *serveTarget
	events []int // query index per request, Zipf over popularity rank
	snap0  serveSnapshot
	bytes0 int64
}

func (w *serveWorkload) setup() (err error) {
	if err = w.stage("datagen.generate", func() error {
		w.g, err = generateBSBM(w.sz.serveScale, w.seed)
		return err
	}); err != nil {
		return err
	}
	if err = w.stage("server.boot", func() error {
		w.t, err = newServeTarget(w.g, 0, w.tr)
		return err
	}); err != nil {
		return err
	}
	w.events = zipfTrace(w.seed, w.sz.traceEvents, len(w.queries))
	w.setInputs(func() []string { return []string{w.g.version(), fmt.Sprint(w.events)} })
	return nil
}

func (w *serveWorkload) verify() (checks, failed int, errs []string) {
	return w.verifyEach(func(q querySpec) error {
		ex, err := w.oracle(w.g, q, true)
		if err != nil {
			return err
		}
		res, err := w.t.httpQuery(context.Background(), q.src, true)
		if err != nil {
			return err
		}
		return checkRows(res.rows, res.textHash(), ex.rows, ex.textHash)
	})
}

// timed replays the trace closed-loop: each client sends its next request
// when the previous one has been answered. Every request bypasses the cache.
func (w *serveWorkload) timed(sec *section, until time.Time) {
	w.snap0, w.bytes0 = w.t.snapshot(), w.t.respBytes.Load()
	limit := len(w.events)
	if w.sz.maxPasses > 0 {
		limit = w.sz.maxPasses * len(w.queries) * serveClients
	}
	ctx := context.Background()
	var next atomic.Int64
	parts := make([]*section, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		parts[c] = newSection(sec.tr)
		wg.Add(1)
		go func(part *section) {
			defer wg.Done()
			for time.Now().Before(until) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				q := w.queries[w.events[i%len(w.events)]]
				part.query(q.id, w.want[q.id].rows, func() (opResult, error) { return w.t.httpQuery(ctx, q.src, true) })
			}
		}(parts[c])
	}
	wg.Wait()
	for _, p := range parts {
		sec.merge(p)
	}
	sec.wall = time.Since(start)
}

func (w *serveWorkload) layer(sec *section, out *metricSet) {
	n := sec.queries()
	snap := w.t.snapshot()
	out.set("server.self_ms", sec.perQuery(ms(sec.sum.server-sec.sum.jobs)), n)
	out.set("server.response_bytes_per_query", sec.perQuery(float64(w.t.respBytes.Load()-w.bytes0)), n)
	out.set("server.queue_wait_p95_ms", snap.queueWaitP95MS, n)
	out.set("server.shed", float64(snap.shed-w.snap0.shed), n)
	out.set("server.mr_cycles", sec.perQuery(float64(snap.mrCycles-w.snap0.mrCycles)), n)
	out.set("server.plan_cache_hit_ratio", ratio(snap.planHits-w.snap0.planHits, snap.planMisses-w.snap0.planMisses), n)
	out.set("server.result_cache_hit_ratio", ratio(snap.resultHits-w.snap0.resultHits, snap.resultMisses-w.snap0.resultMisses), n)
	if sec.sum.shuffleBytes > 0 {
		out.set("plan.est_shuffle_ratio", float64(sec.sum.estShuffleBytes)/float64(sec.sum.shuffleBytes), n)
	}
}

// ratio is hits ÷ (hits + misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (w *serveWorkload) micros() ([]micro, error) {
	ctx := context.Background()
	le, err := newLocalEngine(w.g, phiMFor(w.sz.serveScale), 0, nil)
	if err != nil {
		return nil, err
	}
	le.buildCatalog()
	if err := le.load(); err != nil {
		return nil, err
	}
	if err := le.compileAll(w.queries); err != nil {
		return nil, err
	}
	// The rows the daemon renders most: B1's, the largest result it serves
	// that is not the rare B5.
	res, err := le.run("B1")
	if err != nil {
		return nil, err
	}
	each := func(metric string, call func(q querySpec) (opResult, error)) micro {
		return micro{metric, func() (float64, error) {
			for _, q := range w.queries {
				if _, err := call(q); err != nil {
					return 0, err
				}
			}
			return float64(len(w.queries)), nil
		}}
	}
	ms := append(queryMicros(le, w.queries), renderMicros(res)...)
	return append(ms,
		each("server.evaluate_ms", func(q querySpec) (opResult, error) { return w.t.evaluate(ctx, q.src, true) }),
		// Reported as server.http_overhead_ms once evaluate_ms is subtracted.
		each("server.http_ms", func(q querySpec) (opResult, error) { return w.t.httpQuery(ctx, q.src, true) }),
		each("server.cache_hit_us", func(q querySpec) (opResult, error) {
			res, err := w.t.httpQuery(ctx, q.src, false)
			if err == nil && !res.counts.resultCacheHit {
				err = fmt.Errorf("%s: warmed repeat was not a cache hit", q.id)
			}
			return res, err
		}),
	), nil
}

// segments reports the HTTP overhead, then posts the ingest workload's batches
// to a second daemon whose result cache holds every BSBM catalog query, and
// reports how much of the cache the batches let it keep.
func (w *serveWorkload) segments(_ *section, derived map[string]float64, out *metricSet) error {
	out.set("server.http_overhead_ms", derived["server.http_ms"]/1e6-out.values["server.evaluate_ms"].Value, 1)
	ctx := context.Background()
	g, err := generateBSBM(w.sz.serveScale, w.seed)
	if err != nil {
		return err
	}
	full, err := generateBSBM(w.sz.ingestScale, w.seed)
	if err != nil {
		return err
	}
	_, batches := full.splitForIngest(w.seed, w.sz.ingestBase, ingestBatches)
	t, err := newServeTarget(g, 64, nil)
	if err != nil {
		return err
	}
	defer t.close()
	for _, q := range bsbmCatalog() {
		if _, err := t.httpQuery(ctx, q.src, false); err != nil {
			return fmt.Errorf("warming %s: %w", q.id, err)
		}
	}
	var lat []float64
	for _, b := range batches {
		end := w.tr.begin("server.ingest")
		start := time.Now()
		err := t.postIngest(ctx, b)
		lat = append(lat, ms(time.Since(start)))
		end()
		if err != nil {
			return err
		}
	}
	snap := t.snapshot()
	out.set("server.ingest_ms", median(lat), len(lat))
	out.set("server.cache_retained", float64(snap.cacheRetained), len(lat))
	out.set("server.cache_evicted", float64(snap.cacheEvicted), len(lat))
	return nil
}

func (w *serveWorkload) close() {
	if w.t != nil {
		w.t.close()
	}
	w.t, w.g = nil, nil
}

// ---- ingest_mixed --------------------------------------------------------------

// ingestWorkload replays the warehouse flow of `ntga-run -partition-buckets
// -ingest -compact` in episodes. One episode starts from a fresh load of the
// base with its bucketed layout, then runs 8 rounds: ingest a batch, query
// over base ∪ deltas (the layout is stale, so the flat plan runs), and every
// 4th round compact — rewriting the affected buckets — and query again over
// the restored layout. Episodes all start from the same state, so a run that
// fits more of them reports the same counts.
type ingestWorkload struct {
	*base
	le      *localEngine
	baseG   *graph
	batches [][]byte
	rows    map[string]int // verified row count per query point of the episode
	dfs     dfsStats       // Σ over episodes
	usedEnd int64
	liveEnd int64
}

func (w *ingestWorkload) setup() (err error) {
	var full *graph
	if err = w.stage("datagen.generate", func() error {
		full, err = generateBSBM(w.sz.ingestScale, w.seed)
		return err
	}); err != nil {
		return err
	}
	w.baseG, w.batches = full.splitForIngest(w.seed, w.sz.ingestBase, ingestBatches)
	if w.le, err = newLocalEngine(w.baseG, phiMFor(w.sz.ingestScale), 0, w.tr); err != nil {
		return err
	}
	if err = w.stage("engine.load_graph", w.le.load); err != nil {
		return err
	}
	if err = w.stage("plan.catalog_build", func() error { w.le.buildCatalog(); return nil }); err != nil {
		return err
	}
	if err = w.stage("plan.layout_build", func() error { return w.le.buildLayout(layoutBuckets) }); err != nil {
		return err
	}
	if err = w.le.openStore(); err != nil {
		return err
	}
	w.setInputs(func() []string {
		parts := []string{w.baseG.version()}
		for _, b := range w.batches {
			parts = append(parts, string(b))
		}
		return parts
	})
	return w.le.compileAll(w.queries)
}

// episode runs the op sequence once. check, when set, is called at every
// query point with the point's key and the query's result.
func (w *ingestWorkload) episode(sec *section, check func(point string, round int, q querySpec, res opResult)) {
	queryAll := func(round int, stage string) {
		depth := w.le.chainDepth()
		for _, q := range w.queries {
			point := fmt.Sprintf("%d/%s/%s", round, stage, q.id)
			want, known := w.rows[point]
			if !known {
				want = -1
			}
			res, ok := sec.query(q.id, want, func() (opResult, error) { return w.le.runWarehouse(q.id) })
			if ok {
				sec.chainDepth += depth
				if check != nil {
					check(point, round, q, res)
				}
			}
		}
	}
	for round := 1; round <= len(w.batches); round++ {
		before := w.le.dfsStats().written
		d, ok := sec.op("ingest", func() error {
			facts, err := w.le.ingest(w.batches[round-1])
			sec.ingestTriples += facts.triples
			sec.ingestBlockBytes += facts.blockBytes
			return err
		})
		if ok {
			sec.ingestMS = append(sec.ingestMS, d)
		}
		sec.ingestWrite += w.le.dfsStats().written - before
		queryAll(round, "delta")
		if round%compactEvery != 0 {
			continue
		}
		before = w.le.dfsStats().written
		d, ok = sec.op("compact", func() error {
			n, err := w.le.compact()
			sec.bucketsRewrite += n
			return err
		})
		if ok {
			sec.compactMS = append(sec.compactMS, d)
		}
		sec.ingestWrite += w.le.dfsStats().written - before
		queryAll(round, "compacted")
	}
}

// verify runs one untimed episode. Every query point's row count becomes the
// timed episodes' expectation; at each compaction round the rows, before and
// after compaction, must equal the oracle's over a fresh parse of base ∪ the
// batches so far — the last of which is the full graph.
func (w *ingestWorkload) verify() (checks, failed int, errs []string) {
	if w.rows != nil {
		// Verified once already this run; every timed episode starts from its
		// own fresh set-up, so there is nothing to warm up either.
		return 0, 0, nil
	}
	w.rows = make(map[string]int)
	baseNT, err := w.baseG.ntriples() // before the episode's ingests grow it
	if err != nil {
		return 1, 1, []string{err.Error()}
	}
	refs := make(map[int]*graph)
	sec := newSection(nil)
	w.episode(sec, func(point string, round int, q querySpec, res opResult) {
		w.rows[point] = res.rows
		if round%compactEvery != 0 {
			return
		}
		checks++
		g := refs[round]
		var err error
		if g == nil {
			g, err = mergedGraph(baseNT, w.batches[:round])
			refs[round] = g
		}
		if err == nil {
			var ex expected
			key := fmt.Sprintf("%d/%s", round, q.id)
			if ex, err = w.oracle(g, querySpec{key, q.src}, true); err == nil {
				err = checkRows(res.rows, res.textHash(), ex.rows, ex.textHash)
			}
		}
		if err != nil {
			failed++
			errs = append(errs, fmt.Sprintf("%s/%s: %v", w.name, point, err))
		}
	})
	failed += sec.failed
	errs = append(errs, sec.errs...)
	return checks + sec.attempted, failed, errs
}

func (w *ingestWorkload) timed(sec *section, until time.Time) {
	w.dfs = dfsStats{}
	w.passes(until, func() {
		mem0 := readMem()
		err := freshSetup(w)
		sec.untimed = sec.untimed.plus(readMem().minus(mem0))
		if err != nil {
			sec.attempted++
			sec.fail("set-up: %v", err)
			return
		}
		from := w.le.dfsStats()
		w.episode(sec, nil)
		to := w.le.dfsStats()
		w.dfs.read += to.read - from.read
		w.dfs.written += to.written - from.written
		w.dfs.spillWritten += to.spillWritten - from.spillWritten
		w.dfs.used = to.used
		w.usedEnd, w.liveEnd = to.used, w.le.g.encodedBytes()
	})
}

func (w *ingestWorkload) layer(sec *section, out *metricSet) {
	dfsLayer(sec, out, dfsStats{}, w.dfs)
	n := len(sec.ingestMS)
	var ingestS float64
	for _, d := range sec.ingestMS {
		ingestS += d / 1000
	}
	if ingestS > 0 {
		out.set("ingest_triples_per_s", float64(sec.ingestTriples)/ingestS, n)
	}
	out.set("compact_p50_ms", median(sec.compactMS), len(sec.compactMS))
	if w.liveEnd > 0 {
		out.set("storage_amplification", float64(w.usedEnd)/float64(w.liveEnd), 1)
	}
	out.set("ingest.store_ingest_ms", median(sec.ingestMS), n)
	out.set("ingest.compact_ms", median(sec.compactMS), len(sec.compactMS))
	out.set("ingest.chain_depth_mean", sec.perQuery(float64(sec.chainDepth)), sec.queries())
	if len(sec.compactMS) > 0 {
		out.set("ingest.buckets_rewritten", float64(sec.bucketsRewrite)/float64(len(sec.compactMS)), len(sec.compactMS))
	}
	if sec.ingestBlockBytes > 0 {
		out.set("ingest.write_bytes_per_ingested_byte", float64(sec.ingestWrite)/float64(sec.ingestBlockBytes), n)
	}
}

func (w *ingestWorkload) micros() ([]micro, error) {
	return ingestMicros(w.baseG, w.batches), nil
}

func (w *ingestWorkload) close() { w.le, w.baseG = nil, nil }

// ---- cluster_loopback ----------------------------------------------------------

type clusterWorkload struct {
	*base
	g      *graph
	t      *clusterTarget
	stats0 clusterStats
	dfs0   dfsStats
}

func (w *clusterWorkload) setup() (err error) {
	if err = w.stage("datagen.generate", func() error {
		w.g, err = generateBSBM(w.sz.clusterScale, w.seed)
		return err
	}); err != nil {
		return err
	}
	w.setInputs(func() []string { return []string{w.g.version()} })
	return w.stage("cluster.boot", func() error {
		w.t, err = newClusterTarget(w.g, clusterWorkers, layoutBuckets, phiMFor(w.sz.clusterScale), w.tr)
		return err
	})
}

// local builds the in-process engine over the same graph: the local run the
// cluster's rows must equal, and the denominator of cluster.vs_local_ratio.
func (w *clusterWorkload) local() (*localEngine, error) {
	le, err := newLocalEngine(w.g, phiMFor(w.sz.clusterScale), 0, nil)
	if err != nil {
		return nil, err
	}
	if err := le.load(); err != nil {
		return nil, err
	}
	return le, le.compileAll(w.queries)
}

func (w *clusterWorkload) verify() (checks, failed int, errs []string) {
	le, err := w.local()
	if err != nil {
		return 1, 1, []string{err.Error()}
	}
	return w.verifyEach(func(q querySpec) error {
		ex, err := w.oracle(w.g, q, false)
		if err != nil {
			return err
		}
		res, err := w.t.run(context.Background(), q.src)
		if err != nil {
			return err
		}
		loc, err := le.run(q.id)
		if err != nil {
			return err
		}
		if err := checkRows(res.rows, res.idHash(), ex.rows, ex.idHash); err != nil {
			return err
		}
		return checkRows(res.rows, res.textHash(), loc.rows, loc.textHash())
	})
}

func (w *clusterWorkload) timed(sec *section, until time.Time) {
	ctx := context.Background()
	w.stats0, w.dfs0 = w.t.stats(), w.t.dfsStats()
	w.passes(until, func() {
		for _, q := range w.queries {
			src := q.src
			sec.query(q.id, w.want[q.id].rows, func() (opResult, error) { return w.t.run(ctx, src) })
		}
	})
}

func (w *clusterWorkload) layer(sec *section, out *metricSet) {
	dfsLayer(sec, out, w.dfs0, w.t.dfsStats())
	n := sec.queries()
	st := w.t.stats()
	dispatched := st.tasksDispatched - w.stats0.tasksDispatched
	out.set("cluster.master_wire_bytes_per_query", sec.perQuery(float64(st.masterWireBytes-w.stats0.masterWireBytes)), n)
	out.set("cluster.peer_wire_bytes_per_query", sec.perQuery(float64(st.peerWireBytes-w.stats0.peerWireBytes)), n)
	out.set("cluster.master_conns", float64(st.masterConns), 1)
	out.set("cluster.tasks_dispatched_per_query", sec.perQuery(float64(dispatched)), n)
	if dispatched > 0 {
		out.set("cluster.affine_lease_ratio", float64(st.affineLeases-w.stats0.affineLeases)/float64(dispatched), n)
	}
	out.set("cluster.rpc_retries", float64(st.rpcRetries-w.stats0.rpcRetries), n)
	out.set("cluster.redials", float64(st.redials-w.stats0.redials), n)
}

func (w *clusterWorkload) micros() ([]micro, error) {
	le, err := w.local()
	if err != nil {
		return nil, err
	}
	le.buildCatalog()
	each := micro{"cluster.local_ms", func() (float64, error) {
		for _, q := range w.queries {
			if _, err := le.run(q.id); err != nil {
				return 0, err
			}
		}
		return float64(len(w.queries)), nil
	}}
	// The master parses, compiles and plans every query it is sent.
	return append(queryMicros(le, w.queries), each), nil
}

// segments reports the cluster's mean latency against the local engine's on
// the same graph and queries.
func (w *clusterWorkload) segments(plain *section, derived map[string]float64, out *metricSet) error {
	if local := derived["cluster.local_ms"] / 1e6; local > 0 {
		out.set("cluster.vs_local_ratio", mean(plain.all)/local, plain.queries())
	}
	return nil
}

func (w *clusterWorkload) close() {
	if w.t != nil {
		w.t.close()
	}
	w.t, w.g = nil, nil
}
