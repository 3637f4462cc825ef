package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	sz      sizes
	smoke   bool
	outDir  string // where the traced pass writes its Chrome trace
}

// result is one run of one workload in one mode: what -out persists and
// -compare reads.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      int                    `json:"trace"`
	Smoke      bool                   `json:"smoke,omitempty"`
	InputsHash string                 `json:"inputs_hash"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Findings   []string               `json:"findings,omitempty"`
	Errors     []string               `json:"errors,omitempty"`
	Go         string                 `json:"go"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
}

func newResult(w workload, o options, trace int) *result {
	return &result{
		Workload: w.common().name, Seed: o.seed, Seconds: o.seconds, Trace: trace, Smoke: o.smoke,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// tally adds operations and failures to the result.
func (r *result) tally(attempted, failed int, errs []string) {
	r.Attempted += attempted
	r.Failed += failed
	r.Errors = append(r.Errors, errs...)
}

func (r *result) finish(w workload, m *metricSet) {
	m.fillZero()
	r.Metrics = m.values
	r.InputsHash = w.common().inputs
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Correct = false
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not finite", name))
		}
	}
}

// liveHeapMB is HeapAlloc after a forced collection; the second cycle frees
// what the first only moved out of the sync.Pools.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// prepare sets the workload up sz.setups times, keeping the last, and warms
// it up against the oracle.
func prepare(w workload, r *result) error {
	for i := 0; i < w.common().sz.setups; i++ {
		if err := freshSetup(w); err != nil {
			return fmt.Errorf("%s set-up: %w", w.common().name, err)
		}
	}
	r.tally(w.verify())
	return nil
}

func (o options) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(o.seconds * share * float64(time.Second)))
}

// runEndToEnd is the untraced run: the numbers a user of the system sees.
func runEndToEnd(name string, o options) (*result, error) {
	w, err := newWorkload(name, o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := newResult(w, o, 0)
	if err := prepare(w, r); err != nil {
		return nil, err
	}
	heap := liveHeapMB()

	sec := newSection(nil)
	mem0 := readMem()
	w.timed(sec, o.deadline(1))
	mem := readMem().minus(mem0).minus(sec.untimed)
	r.tally(sec.attempted, sec.failed, sec.errs)
	heap = math.Max(heap, liveHeapMB())

	b := w.common()
	m := newMetricSet(endToEnd)
	n := sec.queries()
	m.set("setup_s", median(b.setupS), len(b.setupS))
	m.set("query_p50_ms", percentile(sec.all, 50), n)
	m.set("query_p95_ms", percentile(sec.all, 95), n)
	if sec.wall > 0 {
		m.set("queries_per_s", float64(n)/sec.wall.Seconds(), n)
	}
	m.set("allocs_per_query", sec.perQuery(float64(mem.mallocs)), n)
	m.set("dfs_write_bytes_per_query", sec.perQuery(float64(sec.sum.dfsWriteBytes)), n)
	m.set("live_heap_mb", heap, 2)
	r.finish(w, m)
	return r, nil
}

// memCounters is the slice of runtime.MemStats the runtime.* metrics use.
type memCounters struct {
	mallocs, bytes, pauseNS uint64
	gcs                     uint32
}

func (m memCounters) minus(o memCounters) memCounters {
	return memCounters{m.mallocs - o.mallocs, m.bytes - o.bytes, m.pauseNS - o.pauseNS, m.gcs - o.gcs}
}

func (m memCounters) plus(o memCounters) memCounters {
	return memCounters{m.mallocs + o.mallocs, m.bytes + o.bytes, m.pauseNS + o.pauseNS, m.gcs + o.gcs}
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

// watchHeap samples heap in use until stop is called, without stopping the
// world, and returns the peak in MiB.
func watchHeap() (stop func() float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var peak atomic.Uint64
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		return float64(peak.Load()) / (1 << 20)
	}
}

// runTraced is the per-layer run: a third of the time untraced (the exact
// counters, the runtime's counters, and the base of the tracing overhead), a
// third traced, and then the layer micro-benchmarks. No end-to-end number
// comes from here.
func runTraced(name string, o options) (*result, error) {
	w, err := newWorkload(name, o.seed, o.sz)
	if err != nil {
		return nil, err
	}
	defer w.close()
	b := w.common()
	r := newResult(w, o, 1)
	if err := prepare(w, r); err != nil {
		return nil, err
	}
	m := newMetricSet(perLayer)

	// Untraced section.
	plain := newSection(nil)
	mem0, stopWatch := readMem(), watchHeap()
	w.timed(plain, o.deadline(1.0/3))
	heapPeak, mem, goroutines := stopWatch(), readMem().minus(mem0).minus(plain.untimed), runtime.NumGoroutine()
	r.tally(plain.attempted, plain.failed, plain.errs)
	n := plain.queries()
	w.layer(plain, m)
	countLayers(plain, m)
	m.set("runtime.allocs_per_query", plain.perQuery(float64(mem.mallocs)), n)
	m.set("runtime.alloc_bytes_per_query", plain.perQuery(float64(mem.bytes)), n)
	m.set("runtime.gc_cycles", float64(mem.gcs), n)
	m.set("runtime.gc_pause_ms", float64(mem.pauseNS)/1e6, n)
	m.set("runtime.heap_inuse_peak_mb", heapPeak, n)
	m.set("runtime.goroutines_end", float64(goroutines), 1)

	// Traced section, on a fresh instance wired to the tracer.
	b.tr = newTracer()
	if err := freshSetup(w); err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", name, err)
	}
	r.tally(w.verify())
	traced := newSection(b.tr)
	w.timed(traced, o.deadline(1.0/3))
	r.tally(traced.attempted, traced.failed, traced.errs)
	fold := foldSpans(b.tr.spans())
	for _, kind := range phaseKinds {
		metric := "mapreduce.phase_" + kind + "_ms"
		if kind == "commit" {
			metric = "mapreduce.commit_ms"
		}
		m.set(metric, fold.perQueryMS(fold.phase[kind]), fold.queries)
	}
	m.set("mapreduce.job_self_ms", fold.perQueryMS(fold.jobSelf), fold.queries)
	if p50 := percentile(plain.all, 50); p50 > 0 {
		m.set("trace.overhead_ratio", percentile(traced.all, 50)/p50, traced.queries())
	}
	m.set("trace.unattributed_share", fold.unattributedShare(), fold.queries)
	if share := fold.unattributedShare(); share > 0.10 {
		r.Findings = append(r.Findings, gapFinding(name, fold))
	}

	// Set-up stages and micro-benchmarks.
	for metric, stage := range map[string]string{
		"datagen.generate_ms": "datagen.generate", "engine.load_graph_ms": "engine.load_graph",
		"plan.catalog_build_ms": "plan.catalog_build", "plan.layout_build_ms": "plan.layout_build",
		"cluster.boot_ms": "cluster.boot",
	} {
		if v, k := b.stageMS(stage); k > 0 {
			m.set(metric, v, k)
		}
	}
	if err := microLayers(w, plain, m); err != nil {
		r.tally(1, 1, []string{err.Error()})
	}
	m.set("failed_ratio", float64(r.Failed)/float64(r.Attempted), r.Attempted)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := b.tr.writeChrome(filepath.Join(o.outDir, "trace_"+name+".json")); err != nil {
		return nil, err
	}
	r.finish(w, m)
	return r, nil
}

// countLayers reports what the engine counted for the section's queries.
func countLayers(sec *section, m *metricSet) {
	n := sec.queries()
	c := sec.sum
	per := func(v int64) float64 { return sec.perQuery(float64(v)) }
	m.set("shuffle_bytes_per_query", per(c.shuffleBytes), n)
	m.set("mapreduce.cycles_per_query", per(c.cycles), n)
	m.set("mapreduce.map_only_jobs_per_query", per(c.mapOnlyJobs), n)
	m.set("mapreduce.tasks_per_query", per(c.tasks), n)
	m.set("mapreduce.map_input_bytes_per_query", per(c.mapInputBytes), n)
	m.set("mapreduce.spilled_bytes_per_query", per(c.spilledBytes), n)
	m.set("mapreduce.merge_passes_per_query", per(c.mergePasses), n)
	m.set("mapreduce.peak_sort_buffer_bytes", float64(c.peakSortBuffer), n)
	m.set("mapreduce.straggler_ratio", sec.perQuery(c.straggler), n)
	m.set("mapreduce.reduce_byte_skew", sec.perQuery(c.byteSkew), n)
	m.set("mapreduce.task_retries", float64(c.retries), n)
	m.set("engine.post_workflow_ms", sec.perQuery(sec.postWorkflowMS), n)
	for _, d := range perLayer {
		if id, ok := strings.CutPrefix(d.name, "engine.run_ms."); ok && len(sec.byQuery[id]) > 0 {
			m.set(d.name, median(sec.byQuery[id]), len(sec.byQuery[id]))
		}
	}
}

// gapFinding names where the request time that no phase span covers sits.
func gapFinding(name string, f traceFold) string {
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(f.wall) }
	return fmt.Sprintf("%s: %.0f%% of the requests' wall clock has no named phase running "+
		"(outside the workflow span — plan, final read, decode, render, transport: %.0f%%; "+
		"workflow self %.0f%%; job self %.0f%%; task self, summed over parallel tasks, %.0f%%)",
		name, 100*f.unattributedShare(), share(f.wall-f.workflows), share(f.flowSelf), share(f.jobSelf), share(f.taskSelf))
}

// microLayers runs the workload's micro-benchmarks, then the segments that
// exist only for a layer's numbers.
func microLayers(w workload, plain *section, m *metricSet) error {
	b := w.common()
	list, err := w.micros()
	if err != nil {
		return err
	}
	derived := make(map[string]float64) // timings that feed a metric without being one
	for _, mc := range list {
		end := b.tr.begin("micro " + mc.metric)
		ns, iters, err := runMicro(mc, b.sz.microBudget, b.sz.microIters)
		end()
		if err != nil {
			return fmt.Errorf("%s: %w", mc.metric, err)
		}
		def, ok := findMetric(perLayer, mc.metric)
		if !ok {
			derived[mc.metric] = ns
			continue
		}
		switch def.unit {
		case "us":
			ns /= 1e3
		case "ms":
			ns /= 1e6
		case "MB/s": // the unit is a byte: bytes/ns → MB/s
			ns = 1e3 / ns
		}
		m.set(mc.metric, ns, iters)
	}
	return w.segments(plain, derived, m)
}

// runMicro repeats one micro-benchmark for its time budget, at least minIters
// times, and returns the median time per unit in ns.
func runMicro(mc micro, budget time.Duration, minIters int) (nsPerUnit float64, iters int, err error) {
	var perUnit []float64
	for start := time.Now(); iters < minIters || time.Since(start) < budget; iters++ {
		t0 := time.Now()
		units, err := mc.run()
		d := time.Since(t0)
		if err != nil {
			return 0, iters, err
		}
		if units <= 0 {
			return 0, iters, fmt.Errorf("no work done")
		}
		perUnit = append(perUnit, float64(d.Nanoseconds())/units)
	}
	return median(perUnit), iters, nil
}
