// Command ntga-run evaluates a SPARQL query (in the supported unbound-
// property subset) over an N-Triples file using any of the MapReduce query
// engines, printing the result bindings and the workflow's cost metrics.
//
// Usage:
//
//	ntga-run -data data.nt -query query.rq -engine ntga-lazy
//	ntga-run -data data.nt -e 'SELECT * WHERE { ?s ?p ?o . }' -engine hive -metrics
//	ntga-run -server 127.0.0.1:7457 -ingest delta.nt -compact
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ntga/internal/cluster"
	"ntga/internal/engine"
	"ntga/internal/engines"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/server"
	"ntga/internal/stats"
	"ntga/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	data, queryFile, inline, engine     string
	nodes, rep, phiM, limit             int
	sortBuf                             int64
	faults, traceOut, statsOut          string
	speculate, metrics, timeline        bool
	advise, optimize                    bool
	server, health, tenant              string
	noCache                             bool
	cluster                             string
	clusterStatus                       bool
	reducers, splitRecords, partBuckets int
	partOut                             string
	noPartition                         bool
	ingest                              string
	compact                             bool
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.data, "data", "", "N-Triples input file (required)")
	fs.StringVar(&o.queryFile, "query", "", "SPARQL query file")
	fs.StringVar(&o.inline, "e", "", "inline SPARQL query text")
	fs.StringVar(&o.engine, "engine", "ntga-lazy", "engine: auto, pig, hive, sj-per-cycle, sel-sj-first, ntga-eager, ntga-lazy, ntga-lazy-full, ntga-lazy-partial, ref (auto lets the cost advisor pick)")
	fs.IntVar(&o.nodes, "nodes", 8, "simulated cluster size")
	fs.IntVar(&o.rep, "replication", 1, "DFS replication factor")
	fs.IntVar(&o.phiM, "phim", 0, "partial β-unnest partition range (0 = default)")
	fs.Int64Var(&o.sortBuf, "sortbuf", 0, "map sort-buffer budget in bytes; map output beyond it spills to local disk (0 = unbounded)")
	fs.StringVar(&o.faults, "faults", "", "inject seeded mid-phase faults: rate:seed[:nodekills], e.g. 0.01:7 or 0.01:7:2 (node kills escalate from faults); prints a recovery summary")
	fs.BoolVar(&o.speculate, "speculate", false, "launch speculative backup attempts for straggling tasks")
	fs.BoolVar(&o.metrics, "metrics", false, "print per-job workflow metrics")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace_event JSON profile of the workflow to this file (open in chrome://tracing or ui.perfetto.dev)")
	fs.BoolVar(&o.timeline, "timeline", false, "print a per-job plain-text task timeline (implies tracing)")
	fs.BoolVar(&o.advise, "advise", false, "print the cost advisor's strategy recommendation")
	fs.BoolVar(&o.optimize, "optimize", false, "reorder inter-star joins by catalog-estimated selectivity before running")
	fs.StringVar(&o.statsOut, "stats-out", "", "build the statistics catalog (map-only MR job) and write it to this file")
	fs.IntVar(&o.limit, "limit", 0, "print at most N rows (0 = all)")
	fs.StringVar(&o.server, "server", "", "client mode: send the query to a running ntga-serve daemon at this address instead of evaluating locally")
	fs.StringVar(&o.health, "health", "", "check a running ntga-serve daemon's /healthz and exit")
	fs.StringVar(&o.tenant, "tenant", "", "client mode: slot-pool scheduling class for this query")
	fs.BoolVar(&o.noCache, "no-cache", false, "client mode: bypass the server's result cache")
	fs.StringVar(&o.cluster, "cluster", "", "distributed mode: submit the query to a running ntga-master at this RPC address instead of evaluating locally")
	fs.BoolVar(&o.clusterStatus, "cluster-status", false, "distributed mode: print the master's cluster status and exit")
	fs.IntVar(&o.reducers, "reducers", 0, "reduce partitions per job (0 = engine default)")
	fs.IntVar(&o.splitRecords, "split-records", 0, "records per map split (0 = engine default)")
	fs.IntVar(&o.partBuckets, "partition-buckets", 0, "build the hash-of-subject partitioned layout with this many buckets and run the query over it (0 = flat); in -cluster mode, 0 keeps the master's default")
	fs.StringVar(&o.partOut, "partition-out", "part/T", "DFS directory for the partitioned layout (with -partition-buckets)")
	fs.BoolVar(&o.noPartition, "no-partition", false, "cluster mode: force the flat plan even when the master holds a partitioned layout")
	fs.StringVar(&o.ingest, "ingest", "", "comma-separated N-Triples files appended as delta blocks after the base load, or with -server posted to the daemon's /ingest; the query runs over base ∪ deltas")
	fs.BoolVar(&o.compact, "compact", false, "fold the delta chain into a fresh base generation (delta-merge MR job) before running the query; with -server, POST /compact")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case o.health != "":
		err = checkHealth(stdout, o.health)
	case o.cluster != "" && o.clusterStatus:
		err = clusterStatus(stdout, o.cluster)
	case o.cluster != "":
		err = runCluster(stdout, stderr, &o)
	case o.server != "":
		err = runRemote(stdout, stderr, &o)
	default:
		err = runLocal(stdout, stderr, &o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ntga-run:", err)
		return 1
	}
	return 0
}

// queryText is the query the -e or -query flag names.
func queryText(o *options) (string, error) {
	if o.inline != "" {
		return o.inline, nil
	}
	if o.queryFile == "" {
		return "", fmt.Errorf("one of -query or -e is required")
	}
	b, err := os.ReadFile(o.queryFile)
	return string(b), err
}

// printRows prints a row result the same way in every mode: the header,
// at most limit rows (0 = all) of the total, and how many more there are.
// Counts print as the header and the number.
func printRows(w io.Writer, header, rows []string, total, limit int) {
	fmt.Fprintln(w, strings.Join(header, "\t"))
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, r := range rows[:n] {
		fmt.Fprintln(w, r)
	}
	if total > n {
		fmt.Fprintf(w, "... (%d more rows)\n", total-n)
	}
}

// runLocal evaluates the query in-process over the -data file.
func runLocal(stdout, stderr io.Writer, o *options) error {
	if o.data == "" {
		return fmt.Errorf("-data is required")
	}
	src, err := queryText(o)
	if err != nil {
		return err
	}
	f, err := os.Open(o.data)
	if err != nil {
		return err
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		return err
	}
	q, err := query.Parse(src, g.Dict)
	if err != nil {
		return err
	}

	// The choice is made with the reducer count the run uses: 0 leaves
	// the MR engine's default of 8. The reference evaluator is not in the
	// engine table and ignores join order, so it takes auto's choice only
	// for what -advise and -optimize report.
	reducers := o.reducers
	if reducers == 0 {
		reducers = 8
	}
	name := o.engine
	if name == "ref" {
		name = "auto"
	}
	// The MR engines run over a warehouse, whose boot catalog is the exact
	// one the reference engine takes from the graph.
	var lr localRun
	var cat *plan.Catalog
	if o.engine == "ref" {
		if o.ingest != "" || o.compact {
			return fmt.Errorf("-ingest/-compact need a MapReduce engine (the reference engine has no versioned store)")
		}
		cat = plan.FromGraph(g)
	} else {
		if lr, err = openLocal(o, g); err != nil {
			return err
		}
		cat = lr.wh.View().Catalog
	}
	// What -advise and -optimize report prints even when the engine name
	// is then rejected.
	choice, advice, reorder, err := engines.Choose(cat, q, name, o.phiM, reducers, o.optimize)
	if o.advise {
		strategy := ntgamr.Eager
		if advice.Lazy {
			strategy = ntgamr.LazyAuto
		}
		fmt.Fprintf(stderr, "advisor: strategy=%v phiM=%d\n", strategy, advice.PhiM)
		for _, r := range advice.Reasons {
			fmt.Fprintln(stderr, "  -", r)
		}
	}
	if reorder != nil {
		if reorder.Changed {
			fmt.Fprintf(stderr, "optimizer: join order %v (est shuffle %d, legacy %d)\n",
				reorder.Order, reorder.Est, reorder.LegacyEst)
		} else {
			fmt.Fprintf(stderr, "optimizer: join order kept %v (est shuffle %d)\n", reorder.Order, reorder.Est)
		}
	}
	if err != nil {
		return err
	}

	var rows []query.Row
	var count int64
	if o.engine == "ref" {
		if o.statsOut != "" {
			if err := cat.WriteFile(o.statsOut); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "stats: wrote %s\n", o.statsOut)
		}
		// The reference engine materializes the rows even of a count.
		rows = refengine.Evaluate(q, g)
		count = int64(len(rows))
	} else {
		res, err := runMR(stderr, o, lr, src, q, choice)
		if err != nil {
			return err
		}
		rows, count = res.Rows, res.Count
	}

	header, text := q.Render(rows)
	if q.IsCount() {
		fmt.Fprintf(stdout, "%s\n%d\n", header[0], count)
		return nil
	}
	printRows(stdout, header, text, len(text), o.limit)
	fmt.Fprintf(stderr, "%d rows\n", len(text))
	return nil
}

// localRun is the simulated cluster an MR engine runs on: its MR engine,
// the tracer the run records into (nil without -trace or -timeline), and
// the warehouse over the -data graph.
type localRun struct {
	mr     *mapreduce.Engine
	tracer *trace.Tracer
	wh     *ingest.Warehouse
}

// openLocal builds the simulated cluster and opens the warehouse on it. The
// layout is built, and stamped, at the base version before any -ingest
// lands, like a warehouse whose layout predates the deltas: an uncompacted
// chain makes it stale, and -compact rewrites the affected buckets and
// re-stamps it.
func openLocal(o *options, g *rdf.Graph) (localRun, error) {
	var lr localRun
	if o.traceOut != "" || o.timeline {
		lr.tracer = trace.New()
	}
	cfg := mapreduce.EngineConfig{
		DefaultReducers: o.reducers,
		SplitRecords:    o.splitRecords,
		SortBufferBytes: o.sortBuf,
		Tracer:          lr.tracer,
		Speculation:     o.speculate,
	}
	if o.faults != "" {
		fp, attempts, err := parseFaults(o.faults)
		if err != nil {
			return lr, err
		}
		cfg.Faults = fp
		cfg.TaskMaxAttempts = attempts
	}
	lr.mr = mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: o.nodes, Replication: o.rep}), cfg)
	var err error
	lr.wh, err = ingest.Open(lr.mr, "data/triples", g, o.partOut, o.partBuckets)
	return lr, err
}

// runMR runs the chosen engine on the simulated cluster, with the optional
// statistics export, delta chain, compaction, tracing and fault injection.
func runMR(stderr io.Writer, o *options, lr localRun, src string, q *query.Query, choice engines.Choice) (*engine.Result, error) {
	eng, err := choice.Apply(q)
	if err != nil {
		return nil, err
	}
	if o.engine == "auto" {
		fmt.Fprintf(stderr, "auto: selected %s (phiM=%d)\n", eng.Name(), choice.PhiM)
	}
	mr, wh := lr.mr, lr.wh
	if o.statsOut != "" {
		// Build the catalog the way a warehouse would: a map-only MR job
		// over the DFS-resident relation, persisted both as a DFS file
		// (plan-time loading) and as an OS file (ntga-explain -stats).
		cat, err := plan.BuildCatalog(mr, "data/triples", "data/catalog", wh.Graph().Dict)
		if err != nil {
			return nil, err
		}
		if err := cat.WriteFile(o.statsOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "stats: wrote %s (also persisted to DFS data/catalog)\n", o.statsOut)
	}

	for _, path := range ingestFiles(o) {
		df, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		ires, err := wh.Ingest(df)
		df.Close()
		if err != nil {
			return nil, fmt.Errorf("ingesting %s: %w", path, err)
		}
		fmt.Fprintf(stderr, "ingest: %s: %d triples as block %s (dataset %s)\n",
			path, len(ires.Triples), ires.Block.File, ires.Version)
	}
	if o.compact {
		cres, err := wh.Compact(mr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "compact: folded %d blocks (%d triples) into base generation %d; %d layout buckets rewritten\n",
			cres.Folded, cres.FoldedTriples, cres.Gen, cres.BucketsRewritten)
	}
	if o.ingest != "" {
		// Delta batches may mint terms the query names; re-compile against
		// the extended dictionary so those constants resolve, and put the
		// same choice on the new compile.
		if q, err = query.Parse(src, wh.Graph().Dict); err != nil {
			return nil, err
		}
		if eng, err = choice.Apply(q); err != nil {
			return nil, err
		}
	}

	ds := wh.View()
	if part := ds.Source.Part; part != nil {
		// A layout older than the dataset is planned around (engine.Plan
		// sets it aside while deltas are uncompacted); say so.
		if err := part.Layout().Validate(ds.Version); err != nil {
			fmt.Fprintf(stderr, "partition: layout %s unusable (%v); falling back to the shuffle path\n", part.Dir, err)
		} else {
			fmt.Fprintf(stderr, "partition: built layout %s (%s)\n", part.Dir, part)
		}
	}
	res, err := engine.Run(eng, mr, q, ds.Source)
	if lr.tracer != nil {
		// Export whatever spans were recorded even on failure — a trace
		// of a failed workflow is exactly when you want the profile.
		if o.traceOut != "" {
			if werr := writeTrace(o.traceOut, lr.tracer); werr != nil {
				return nil, werr
			}
			fmt.Fprintf(stderr, "trace: wrote %s\n", o.traceOut)
		}
		if o.timeline {
			fmt.Fprint(stderr, trace.Timeline(lr.tracer.Roots()))
		}
	}
	if o.faults != "" || o.speculate {
		// A recovery summary is most interesting when the run needed
		// recovering — print it even for a failed workflow.
		printRecovery(stderr, res)
	}
	if err != nil {
		return nil, err
	}
	if o.metrics {
		printMetrics(stderr, res)
	}
	return res, nil
}

func printMetrics(w io.Writer, res *engine.Result) {
	t := &stats.Table{Title: "-- workflow metrics (" + res.Engine + ") --",
		Header: []string{"job", "time", "map in", "shuffle", "spilled", "merges", "reduce out", "straggler", "key skew", "byte skew"}}
	straggler := func(j mapreduce.JobMetrics) float64 {
		s := j.MapTaskStats.StragglerRatio
		if j.ReduceTaskStats.StragglerRatio > s {
			s = j.ReduceTaskStats.StragglerRatio
		}
		return s
	}
	for _, j := range res.Workflow.Jobs {
		out := stats.FormatBytes(j.ReduceOutputBytes)
		if j.Sunk {
			out = "→ caller" // the final job's rows went to the caller, not the DFS
		}
		t.AddRow(j.Job, j.Duration.Round(1000).String(), stats.FormatBytes(j.MapInputBytes),
			stats.FormatBytes(j.MapOutputBytes), stats.FormatBytes(j.SpilledBytes),
			j.MergePasses, out,
			stats.FormatRatio(straggler(j)), stats.FormatRatio(j.ReduceKeySkew),
			stats.FormatRatio(j.ReduceByteSkew))
	}
	t.AddRow("TOTAL", res.Workflow.Duration.Round(1000).String(),
		stats.FormatBytes(res.Workflow.TotalMapInputBytes()),
		stats.FormatBytes(res.Workflow.TotalMapOutputBytes()),
		stats.FormatBytes(res.Workflow.TotalSpilledBytes()),
		res.Workflow.TotalMergePasses(),
		stats.FormatBytes(res.Workflow.TotalReduceOutputBytes()),
		stats.FormatRatio(res.Workflow.MaxStragglerRatio()),
		stats.FormatRatio(res.Workflow.MaxReduceKeySkew()),
		stats.FormatRatio(res.Workflow.MaxReduceByteSkew()))
	fmt.Fprintln(w, t.Render())
	fmt.Fprintf(w, "cycles=%d peakDisk=%s peakSortBuffer=%s outputRecords=%d outputBytes=%s\n",
		res.Workflow.Cycles, stats.FormatBytes(res.PeakDFSUsed),
		stats.FormatBytes(res.Workflow.MaxPeakSortBufferBytes()),
		res.OutputRecords, stats.FormatBytes(res.OutputBytes))
	names := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		names = append(names, name)
	}
	sort.Strings(names) // so two runs, local or on a cluster, print alike
	for _, name := range names {
		fmt.Fprintf(w, "counter %s = %d\n", name, res.Counters[name])
	}
}

// parseFaults turns "rate:seed[:nodekills]" into a mid-phase fault plan and
// the retry budget to pair with it. A non-zero nodekills arms node-failure
// escalation: one in four firing faults takes the attempt's data node down,
// up to the given budget.
func parseFaults(s string) (*mapreduce.FaultPlan, int, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, 0, fmt.Errorf("-faults: want rate:seed[:nodekills], got %q", s)
	}
	rate, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || rate < 0 || rate > 1 {
		return nil, 0, fmt.Errorf("-faults: bad rate %q (want 0..1)", parts[0])
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("-faults: bad seed %q", parts[1])
	}
	plan := &mapreduce.FaultPlan{Rate: rate, Seed: seed}
	if len(parts) == 3 {
		nk, err := strconv.Atoi(parts[2])
		if err != nil || nk < 0 {
			return nil, 0, fmt.Errorf("-faults: bad nodekills %q", parts[2])
		}
		if nk > 0 {
			plan.NodeFailureRate = 0.25
			plan.MaxNodeKills = nk
		}
	}
	return plan, 8, nil
}

// runCluster submits the query to a running ntga-master and prints the
// master-rendered rows exactly as a local run would print its own.
func runCluster(stdout, stderr io.Writer, o *options) error {
	src, err := queryText(o)
	if err != nil {
		return err
	}
	c, err := cluster.Dial(nil, o.cluster)
	if err != nil {
		return fmt.Errorf("dialing master %s: %w", o.cluster, err)
	}
	defer c.Close()
	reply, err := c.Run(context.Background(), &cluster.RunArgs{
		Query:        src,
		Engine:       o.engine,
		PhiM:         o.phiM,
		Reducers:     o.reducers,
		SplitRecords: o.splitRecords,
		NoPartition:  o.noPartition,
	})
	if err != nil {
		return err
	}
	if o.metrics {
		printMetrics(stderr, &engine.Result{
			Engine:        reply.Engine,
			Workflow:      reply.Workflow,
			Counters:      reply.Counters,
			OutputRecords: reply.OutputRecords,
			OutputBytes:   reply.OutputBytes,
			PeakDFSUsed:   reply.PeakDFSUsed,
		})
	}
	if reply.IsCount {
		fmt.Fprintf(stdout, "%s\n%d\n", reply.Header[0], reply.Count)
		return nil
	}
	printRows(stdout, reply.Header, reply.RowsText, reply.TotalRows, o.limit)
	fmt.Fprintf(stderr, "%d rows\n", reply.TotalRows)
	return nil
}

// clusterStatus prints the master's view of the cluster: dataset identity,
// per-worker liveness and slot occupancy, and scheduler totals.
func clusterStatus(out io.Writer, addr string) error {
	c, err := cluster.Dial(nil, addr)
	if err != nil {
		return fmt.Errorf("dialing master %s: %w", addr, err)
	}
	defer c.Close()
	st, err := c.Status(context.Background())
	if err != nil {
		return err
	}
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	fmt.Fprintf(out, "master %s: %d triples, dataset %s\n", addr, st.Triples, st.DatasetVersion)
	fmt.Fprintf(out, "workers: %d alive / %d registered, workers_lost=%d, active_queries=%d, tasks_dispatched=%d\n",
		alive, len(st.Workers), st.WorkersLost, st.ActiveQueries, st.TasksDispatched)
	fmt.Fprintf(out, "transport: rpc_retries=%d redials=%d fetch_transient_retries=%d worker_reregistrations=%d\n",
		st.RPCRetries, st.Redials, st.FetchTransientRetries, st.WorkerReregistrations)
	fmt.Fprintf(out, "scheduler: affine_leases=%d\n", st.AffineLeases)
	for _, w := range st.Workers {
		state := "alive"
		if !w.Alive {
			state = "dead"
		}
		fmt.Fprintf(out, "  worker %d %s %s map %d/%d reduce %d/%d done=%d failed=%d\n",
			w.ID, w.Addr, state, w.MapBusy, w.MapSlots, w.ReduceBusy, w.ReduceSlots,
			w.TasksDone, w.TasksFailed)
	}
	return nil
}

// printRecovery summarizes what the fault-tolerance machinery did during the
// run: attempts retried or killed, nodes lost, map output regenerated,
// speculative backups raced, and the attempt-private bytes reclaimed.
func printRecovery(out io.Writer, res *engine.Result) {
	w := res.Workflow
	fmt.Fprintf(out,
		"recovery: retries=%d killedAttempts=%d nodeKills=%d mapOutputRecoveries=%d speculative=%d/%d won tempBytesReclaimed=%s\n",
		w.TotalTaskRetries(), w.TotalKilledAttempts(), w.TotalNodeKills(),
		w.TotalMapOutputRecoveries(), w.TotalSpeculativeWins(), w.TotalSpeculativeLaunched(),
		stats.FormatBytes(w.TotalTempBytesReclaimed()))
}

func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkHealth probes a running daemon's /healthz and fails if it is
// unreachable or unhealthy (the smoke harnesses' readiness gate). A daemon
// hosting the master also reports its alive and registered workers.
func checkHealth(w io.Writer, addr string) error {
	h, err := server.NewClient(addr).Health(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ok triples=%d dataset=%s uptime=%dms", h.Triples, h.DatasetVersion, h.UptimeMS)
	if h.Mode == "distributed" {
		fmt.Fprintf(w, " workers=%d/%d", h.WorkersAlive, h.WorkersRegistered)
	}
	fmt.Fprintln(w)
	return nil
}

// ingestFiles lists the -ingest files in order.
func ingestFiles(o *options) []string {
	var paths []string
	for _, path := range strings.Split(o.ingest, ",") {
		if path = strings.TrimSpace(path); path != "" {
			paths = append(paths, path)
		}
	}
	return paths
}

// runRemote is client mode against an ntga-serve daemon: post each -ingest
// file to /ingest and -compact to /compact, then ship the query, if one was
// given, and print the response in the same shape as a local run (rows on
// stdout, run facts on stderr), so outputs are directly comparable.
func runRemote(stdout, stderr io.Writer, o *options) error {
	c := server.NewClient(o.server)
	ctx := context.Background()
	for _, path := range ingestFiles(o) {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		res, err := c.Ingest(ctx, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("ingesting %s: %w", path, err)
		}
		fmt.Fprintf(stderr, "ingested %d triples (seq %d, %d delta blocks, dataset %s)\n",
			res.Triples, res.Seq, res.DeltaBlocks, res.DatasetVersion)
		fmt.Fprintf(stderr, "cache: %d retained, %d evicted\n", res.CacheRetained, res.CacheEvicted)
		if res.Compacted {
			fmt.Fprintf(stderr, "auto-compacted (%d layout buckets rewritten)\n", res.BucketsRewritten)
		}
	}
	if o.compact {
		res, err := c.Compact(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "compacted %d delta blocks (%d triples) into base generation %d (dataset %s)\n",
			res.Folded, res.FoldedTriples, res.Gen, res.Version)
	}
	if (o.ingest != "" || o.compact) && o.inline == "" && o.queryFile == "" {
		return nil
	}
	src, err := queryText(o)
	if err != nil {
		return err
	}
	req := server.Request{
		Query:    src,
		PhiM:     o.phiM,
		Tenant:   o.tenant,
		NoCache:  o.noCache,
		Limit:    o.limit,
		Metrics:  o.metrics,
		Timeline: o.timeline,
	}
	// The local default is baked into the flag; let the server apply its
	// own default unless the user explicitly picked an engine.
	if o.engine != "ntga-lazy" {
		req.Engine = o.engine
	}
	resp, err := c.Query(ctx, req)
	if err != nil {
		return err
	}
	if resp.IsCount {
		fmt.Fprintf(stdout, "%s\n%d\n", strings.Join(resp.Header, "\t"), resp.Count)
	} else {
		printRows(stdout, resp.Header, resp.Rows, resp.TotalRows, o.limit)
	}
	if resp.Timeline != "" {
		fmt.Fprint(stderr, resp.Timeline)
	}
	if o.metrics {
		for _, j := range resp.Jobs {
			fmt.Fprintf(stderr, "job %s: %dms mapIn=%s shuffle=%s reduceOut=%s spilled=%s retries=%d\n",
				j.Job, j.DurationMS, stats.FormatBytes(j.MapInputBytes), stats.FormatBytes(j.ShuffleBytes),
				stats.FormatBytes(j.ReduceOutputBytes), stats.FormatBytes(j.SpilledBytes), j.TaskRetries)
		}
	}
	fmt.Fprintf(stderr, "server: engine=%s cache=%s plan_cache=%s cycles=%d rows=%d shuffle=%s duration=%dms\n",
		resp.Engine, resp.Cache, resp.PlanCache, resp.Cycles, resp.TotalRows,
		stats.FormatBytes(resp.ShuffleBytes), resp.DurationMS)
	return nil
}
