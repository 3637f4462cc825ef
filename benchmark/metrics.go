package main

// metricDef names one metric of the benchmark. The lists below are the
// program's copy of BENCHMARK.json; the smoke test fails if the two differ.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: the share by which it may worsen
	// exact marks a count that two runs of one commit on one seed, doing the
	// same number of passes, must report identically.
	exact bool
}

var workloadNames = []string{"batch_flat", "batch_bucketed", "serve_uncached", "ingest_mixed", "cluster_loopback"}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_query", unit: "count", better: "lower", bound: 0.10},
	{name: "dfs_write_bytes_per_query", unit: "bytes", better: "lower", bound: 0.10},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.15},
}

var perLayer = []metricDef{
	// End-to-end numbers that are zero or absent on some workload, which the
	// contract does not allow among the bounded metrics.
	{name: "failed_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "shuffle_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "ingest_triples_per_s", unit: "1/s", better: "higher"},
	{name: "compact_p50_ms", unit: "ms", better: "lower"},
	{name: "storage_amplification", unit: "ratio", better: "lower", exact: true},

	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "query.compile_us", unit: "us", better: "lower"},
	{name: "query.format_row_ns", unit: "ns", better: "lower"},
	{name: "rdf.dict_decode_ns", unit: "ns", better: "lower"},
	{name: "rdf.term_string_ns", unit: "ns", better: "lower"},
	{name: "rdf.ntriples_parse_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "plan.plan_us", unit: "us", better: "lower"},
	{name: "plan.optimize_us", unit: "us", better: "lower"},
	{name: "plan.catalog_build_ms", unit: "ms", better: "lower"},
	{name: "plan.catalog_fold_ns_per_triple", unit: "ns", better: "lower"},
	{name: "plan.layout_build_ms", unit: "ms", better: "lower"},
	{name: "plan.est_shuffle_ratio", unit: "ratio", better: "lower", exact: true},

	{name: "engine.load_graph_ms", unit: "ms", better: "lower"},
	{name: "engine.run_ms.Q1a", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B0", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B1", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B2", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B3", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B5", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B6", unit: "ms", better: "lower"},
	{name: "engine.run_ms.B7", unit: "ms", better: "lower"},
	{name: "engine.post_workflow_ms", unit: "ms", better: "lower"},

	{name: "mapreduce.cycles_per_query", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.map_only_jobs_per_query", unit: "count", better: "higher", exact: true},
	{name: "mapreduce.tasks_per_query", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.map_input_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "mapreduce.spilled_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "mapreduce.merge_passes_per_query", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.peak_sort_buffer_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "mapreduce.straggler_ratio", unit: "ratio", better: "lower"},
	{name: "mapreduce.reduce_byte_skew", unit: "ratio", better: "lower", exact: true},
	{name: "mapreduce.task_retries", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.phase_scan_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_map_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_sort_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_spill_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_merge_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_reduce_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.phase_write_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.commit_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.job_self_ms", unit: "ms", better: "lower"},

	{name: "hdfs.read_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "hdfs.write_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "hdfs.spill_bytes_per_query", unit: "bytes", better: "lower", exact: true},
	{name: "hdfs.peak_used_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "hdfs.used_bytes_end", unit: "bytes", better: "lower", exact: true},
	{name: "hdfs.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "hdfs.read_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "codec.encode_triple_ns", unit: "ns", better: "lower"},
	{name: "codec.decode_triple_ns", unit: "ns", better: "lower"},

	{name: "core.group_ns_per_triple", unit: "ns", better: "lower"},
	{name: "core.group_filter_ns_per_group", unit: "ns", better: "lower"},
	{name: "core.anntg_encode_ns", unit: "ns", better: "lower"},
	{name: "core.anntg_decode_ns", unit: "ns", better: "lower"},
	{name: "core.expand_ns_per_row", unit: "ns", better: "lower"},

	{name: "ntgamr.eager_run_ms.B1", unit: "ms", better: "lower"},
	{name: "relmr.hive_run_ms.B1", unit: "ms", better: "lower"},
	{name: "relmr.hive_run_ms.B5", unit: "ms", better: "lower"},
	{name: "ntgamr.shuffle_vs_hive_ratio", unit: "ratio", better: "lower", exact: true},

	{name: "server.evaluate_ms", unit: "ms", better: "lower"},
	{name: "server.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.response_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "server.cache_hit_us", unit: "us", better: "lower"},
	{name: "server.queue_wait_p95_ms", unit: "ms", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower", exact: true},
	{name: "server.mr_cycles", unit: "count", better: "lower", exact: true},
	{name: "server.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.result_cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "server.ingest_ms", unit: "ms", better: "lower"},
	{name: "server.cache_retained", unit: "count", better: "higher", exact: true},
	{name: "server.cache_evicted", unit: "count", better: "lower", exact: true},

	{name: "ingest.validate_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ingest.store_ingest_ms", unit: "ms", better: "lower"},
	{name: "ingest.compact_ms", unit: "ms", better: "lower"},
	{name: "ingest.chain_depth_mean", unit: "count", better: "lower", exact: true},
	{name: "ingest.buckets_rewritten", unit: "count", better: "lower", exact: true},
	{name: "ingest.write_bytes_per_ingested_byte", unit: "ratio", better: "lower", exact: true},

	{name: "cluster.boot_ms", unit: "ms", better: "lower"},
	{name: "cluster.master_wire_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "cluster.peer_wire_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "cluster.master_conns", unit: "count", better: "lower", exact: true},
	{name: "cluster.tasks_dispatched_per_query", unit: "count", better: "lower", exact: true},
	{name: "cluster.affine_lease_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.rpc_retries", unit: "count", better: "lower", exact: true},
	{name: "cluster.redials", unit: "count", better: "lower", exact: true},
	{name: "cluster.vs_local_ratio", unit: "ratio", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},

	{name: "runtime.allocs_per_query", unit: "count", better: "lower"},
	{name: "runtime.alloc_bytes_per_query", unit: "bytes", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_peak_mb", unit: "MiB", better: "lower"},
	{name: "runtime.goroutines_end", unit: "count", better: "lower"},

	{name: "datagen.generate_ms", unit: "ms", better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects the values of one run, checked against the registry.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue)}
}

// set records a value; a name outside the registry or recorded twice is a
// harness bug.
func (m *metricSet) set(name string, value float64, samples int) {
	def, ok := findMetric(m.defs, name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric " + name + " recorded twice")
	}
	m.values[name] = metricValue{Value: value, Unit: def.unit, Samples: samples}
}

// fillZero reports every metric the workload does not exercise as 0.
func (m *metricSet) fillZero() {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			m.values[d.name] = metricValue{Unit: d.unit}
		}
	}
}
