package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkDoc is BENCHMARK.json at the repository root.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []docMetric `json:"end_to_end"`
	PerLayer []docMetric `json:"per_layer"`
}

type docMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRegistryMatchesBenchmarkJSON ties the program's metric lists to the
// declared ones: same names, units, directions and bounds, in the same order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	doc := readDoc(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, declared []docMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the registry %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if want := (docMetric{defs[i].name, defs[i].unit, defs[i].better, defs[i].bound}); d != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the registry %+v", kind, i, d, want)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func smokeOptions(t *testing.T) options {
	return options{seed: 42, seconds: 60, sz: smokeSizes, smoke: true, outDir: t.TempDir()}
}

// mustBePositive lists, per workload, per-layer metrics the workload exists to
// exercise; mustBeZero the ones it exists to bypass.
var mustBePositive = map[string][]string{
	"batch_flat": {"shuffle_bytes_per_query", "mapreduce.spilled_bytes_per_query", "mapreduce.phase_sort_ms",
		"mapreduce.phase_spill_ms", "mapreduce.phase_reduce_ms", "mapreduce.phase_scan_ms",
		"core.expand_ns_per_row", "codec.decode_triple_ns", "hdfs.read_mb_per_s", "ntgamr.shuffle_vs_hive_ratio",
		"engine.run_ms.B6", "relmr.hive_run_ms.B5", "plan.est_shuffle_ratio", "runtime.allocs_per_query"},
	"batch_bucketed": {"mapreduce.map_only_jobs_per_query", "mapreduce.phase_scan_ms", "mapreduce.phase_map_ms",
		"mapreduce.phase_write_ms", "plan.layout_build_ms", "core.group_ns_per_triple"},
	"serve_uncached": {"server.evaluate_ms", "server.http_overhead_ms", "server.response_bytes_per_query",
		"server.cache_hit_us", "server.mr_cycles", "server.plan_cache_hit_ratio", "server.ingest_ms",
		"server.cache_evicted", "query.format_row_ns", "rdf.dict_decode_ns", "rdf.term_string_ns", "sparql.parse_us"},
	"ingest_mixed": {"ingest_triples_per_s", "compact_p50_ms", "storage_amplification", "ingest.store_ingest_ms",
		"ingest.compact_ms", "ingest.chain_depth_mean", "ingest.buckets_rewritten", "ingest.write_bytes_per_ingested_byte",
		"ingest.validate_mb_per_s", "rdf.ntriples_parse_mb_per_s", "plan.catalog_fold_ns_per_triple"},
	"cluster_loopback": {"cluster.boot_ms", "cluster.master_wire_bytes_per_query", "cluster.peer_wire_bytes_per_query",
		"cluster.master_conns", "cluster.tasks_dispatched_per_query", "cluster.vs_local_ratio"},
}

var mustBeZero = map[string][]string{
	"batch_flat": {"failed_ratio", "server.evaluate_ms", "query.format_row_ns", "cluster.master_wire_bytes_per_query"},
	"batch_bucketed": {"failed_ratio", "shuffle_bytes_per_query", "mapreduce.phase_sort_ms", "mapreduce.phase_spill_ms",
		"mapreduce.phase_merge_ms", "mapreduce.phase_reduce_ms", "mapreduce.spilled_bytes_per_query",
		"server.evaluate_ms", "query.format_row_ns", "cluster.master_wire_bytes_per_query"},
	"serve_uncached":   {"failed_ratio", "server.shed", "server.result_cache_hit_ratio", "cluster.master_wire_bytes_per_query"},
	"ingest_mixed":     {"failed_ratio", "server.evaluate_ms", "query.format_row_ns", "cluster.master_wire_bytes_per_query"},
	"cluster_loopback": {"failed_ratio", "server.evaluate_ms", "query.format_row_ns", "cluster.rpc_retries", "cluster.redials"},
}

// TestSmokeSuite runs every workload in both modes at smoke size and checks
// that each declared metric is reported once, finite and with its unit, that
// the workloads separate the layers as designed, that the traced pass repeats
// every exact count, and that -compare accepts the two sets of runs.
func TestSmokeSuite(t *testing.T) {
	doc := readDoc(t)
	dir := t.TempDir()
	fileA, fileB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	o := smokeOptions(t)
	for _, name := range workloadNames {
		e2e, err := runEndToEnd(name, o)
		if err != nil {
			t.Fatal(err)
		}
		checkReported(t, e2e, doc.EndToEnd)
		for _, v := range e2e.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: an end-to-end metric is %v; they are never 0", name, v.Value)
			}
		}
		// The traced pass twice, side by side: the second exists only to show
		// that every exact count repeats.
		type tracedRun struct {
			r   *result
			err error
		}
		again := make(chan tracedRun, 1)
		go func() {
			o2 := o
			o2.outDir = filepath.Join(dir, "again")
			r, err := runTraced(name, o2)
			again <- tracedRun{r, err}
		}()
		first, err := runTraced(name, o)
		second := <-again
		if err != nil || second.err != nil {
			t.Fatal(err, second.err)
		}
		checkReported(t, first, doc.PerLayer)
		for _, metric := range mustBePositive[name] {
			if first.Metrics[metric].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, metric, first.Metrics[metric].Value)
			}
		}
		for _, metric := range mustBeZero[name] {
			if first.Metrics[metric].Value != 0 {
				t.Errorf("%s: %s = %v, want 0", name, metric, first.Metrics[metric].Value)
			}
		}
		if name == "ingest_mixed" {
			// Chain depths 1–4 before each compaction and 0 after it.
			if got := first.Metrics["ingest.chain_depth_mean"].Value; got != 2 {
				t.Errorf("ingest.chain_depth_mean = %v, want 2", got)
			}
		}
		for _, share := range []string{"trace.overhead_ratio", "trace.unattributed_share"} {
			if first.Metrics[share].Samples == 0 {
				t.Errorf("%s: %s has no samples", name, share)
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace_"+name+".json")); err != nil {
			t.Errorf("%s: traced pass left no Chrome trace: %v", name, err)
		}

		if first.InputsHash != second.r.InputsHash || first.InputsHash != e2e.InputsHash {
			t.Errorf("%s: inputs_hash differs between runs of one seed", name)
		}
		for _, def := range perLayer {
			if a, b := first.Metrics[def.name].Value, second.r.Metrics[def.name].Value; def.exact && !sameCount(a, b) {
				t.Errorf("%s: exact metric %s = %v, then %v", name, def.name, a, b)
			}
		}
		for file, rs := range map[string][]*result{fileA: {e2e, first}, fileB: {e2e, second.r}} {
			for _, r := range rs {
				if err := appendResult(file, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	ok, err := compareFiles(io.Discard, fileA, fileB)
	if err != nil || !ok {
		t.Errorf("-compare of two runs of one commit: ok=%v err=%v", ok, err)
	}
	// A run whose median latency is 40% worse must be called regressed.
	slow, err := readResults(fileA)
	if err != nil {
		t.Fatal(err)
	}
	fileC := filepath.Join(dir, "c.json")
	for i := range slow {
		if v, has := slow[i].Metrics["query_p50_ms"]; has {
			v.Value *= 1.4
			slow[i].Metrics["query_p50_ms"] = v
		}
		if err := appendResult(fileC, &slow[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := compareFiles(io.Discard, fileA, fileC); err != nil || ok {
		t.Errorf("-compare against a 40%% slower run: ok=%v err=%v, want a regression", ok, err)
	}
}

// checkReported asserts the run reports exactly the declared metrics, each
// finite and with its declared unit, and that it verified its outputs.
func checkReported(t *testing.T, r *result, declared []docMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d: %v", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed, r.Errors)
	}
	if len(r.Metrics) != len(declared) {
		t.Errorf("%s trace=%d: %d metrics reported, %d declared", r.Workload, r.Trace, len(r.Metrics), len(declared))
	}
	for _, d := range declared {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%d: %s is not reported", r.Workload, r.Trace, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s trace=%d: %s has unit %q, declared %q", r.Workload, r.Trace, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s trace=%d: %s = %v", r.Workload, r.Trace, d.Name, v.Value)
		}
	}
}

// TestInputsComeFromTheSeed: the same seed gives the same inputs, another
// seed gives other inputs.
func TestInputsComeFromTheSeed(t *testing.T) {
	hash := func(name string, seed int64) string {
		w, err := newWorkload(name, seed, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		return w.common().inputs
	}
	for _, name := range workloadNames {
		a, again, other := hash(name, 42), hash(name, 42), hash(name, 7)
		if a == "" || a != again {
			t.Errorf("%s: seed 42 hashed to %q, then %q", name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 42 and 7 both hash to %q", name, a)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("nearest-rank p50 = %v, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 95); got != 4 {
		t.Errorf("nearest-rank p95 = %v, want 4", got)
	}
}

func TestSpanFold(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	sp := func(kind, name string, from, to int, children ...*span) *span {
		return &span{kind: kind, name: name, start: at(from), end: at(to), children: children}
	}
	roots := []*span{
		sp(harnessKind, "query B1", 0, 100),
		sp("workflow", "w", 10, 90,
			sp("job", "j", 10, 90,
				// Two parallel tasks: phases overlap from 30 to 50.
				sp("task", "m0", 20, 50, sp("scan", "scan", 20, 30), sp("map", "map", 30, 50)),
				sp("task", "m1", 30, 70, sp("scan", "scan", 30, 40), sp("map", "map", 40, 70)),
				sp("commit", "commit", 80, 90))),
		sp("job", "layout build, outside any query", 200, 300, sp("task", "t", 200, 300, sp("scan", "scan", 200, 300))),
	}
	f := foldSpans(roots)
	if f.queries != 1 || f.wall != 100*time.Millisecond {
		t.Fatalf("fold saw %d queries over %v", f.queries, f.wall)
	}
	if got := f.phase["scan"]; got != 20*time.Millisecond {
		t.Errorf("scan = %v, want 20ms summed across tasks", got)
	}
	if got := f.covered; got != 60*time.Millisecond { // 20–70 and 80–90
		t.Errorf("covered = %v, want 60ms", got)
	}
	if got := f.jobSelf; got != 20*time.Millisecond { // 10–20 and 70–80
		t.Errorf("job self = %v, want 20ms", got)
	}
	if got := f.unattributedShare(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("unattributed share = %v, want 0.4", got)
	}
}
