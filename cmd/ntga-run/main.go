// Command ntga-run evaluates a SPARQL query (in the supported unbound-
// property subset) over an N-Triples file using any of the MapReduce query
// engines, printing the result bindings and the workflow's cost metrics.
//
// Usage:
//
//	ntga-run -data data.nt -query query.rq -engine ntga-lazy
//	ntga-run -data data.nt -e 'SELECT * WHERE { ?s ?p ?o . }' -engine hive -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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
	"ntga/internal/sparql"
	"ntga/internal/stats"
	"ntga/internal/trace"
)

func main() {
	var (
		dataFile  = flag.String("data", "", "N-Triples input file (required)")
		queryFile = flag.String("query", "", "SPARQL query file")
		inline    = flag.String("e", "", "inline SPARQL query text")
		engName   = flag.String("engine", "ntga-lazy", "engine: auto, pig, hive, sj-per-cycle, sel-sj-first, ntga-eager, ntga-lazy, ntga-lazy-full, ntga-lazy-partial, ref (auto lets the cost advisor pick)")
		nodes     = flag.Int("nodes", 8, "simulated cluster size")
		rep       = flag.Int("replication", 1, "DFS replication factor")
		phiM      = flag.Int("phim", 0, "partial β-unnest partition range (0 = default)")
		sortBuf   = flag.Int64("sortbuf", 0, "map sort-buffer budget in bytes; map output beyond it spills to local disk (0 = unbounded)")
		faults    = flag.String("faults", "", "inject seeded mid-phase faults: rate:seed[:nodekills], e.g. 0.01:7 or 0.01:7:2 (node kills escalate from faults); prints a recovery summary")
		speculate = flag.Bool("speculate", false, "launch speculative backup attempts for straggling tasks")
		metrics   = flag.Bool("metrics", false, "print per-job workflow metrics")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON profile of the workflow to this file (open in chrome://tracing or ui.perfetto.dev)")
		timeline  = flag.Bool("timeline", false, "print a per-job plain-text task timeline (implies tracing)")
		advise    = flag.Bool("advise", false, "print the cost advisor's strategy recommendation")
		optimize  = flag.Bool("optimize", false, "reorder inter-star joins by catalog-estimated selectivity before running")
		statsOut  = flag.String("stats-out", "", "build the statistics catalog (map-only MR job) and write it to this file")
		limit     = flag.Int("limit", 0, "print at most N rows (0 = all)")
		serverURL = flag.String("server", "", "client mode: send the query to a running ntga-serve daemon at this address instead of evaluating locally")
		health    = flag.String("health", "", "check a running ntga-serve daemon's /healthz and exit")
		tenant    = flag.String("tenant", "", "client mode: slot-pool scheduling class for this query")
		noCache   = flag.Bool("no-cache", false, "client mode: bypass the server's result cache")
		clusterAd = flag.String("cluster", "", "distributed mode: submit the query to a running ntga-master at this RPC address instead of evaluating locally")
		clStatus  = flag.Bool("cluster-status", false, "distributed mode: print the master's cluster status and exit")
		reducers  = flag.Int("reducers", 0, "reduce partitions per job (0 = engine default)")
		splitRecs = flag.Int("split-records", 0, "records per map split (0 = engine default)")
		partBkts  = flag.Int("partition-buckets", 0, "build the hash-of-subject partitioned layout with this many buckets and run the query over it (0 = flat); in -cluster mode, 0 keeps the master's default")
		partOut   = flag.String("partition-out", "part/T", "DFS directory for the partitioned layout (with -partition-buckets)")
		noPart    = flag.Bool("no-partition", false, "cluster mode: force the flat plan even when the master holds a partitioned layout")
		ingestNT  = flag.String("ingest", "", "comma-separated N-Triples files appended as delta blocks after the base load; the query runs over base ∪ deltas")
		compact   = flag.Bool("compact", false, "fold the delta chain into a fresh base generation (delta-merge MR job) before running the query")
	)
	flag.Parse()

	if *health != "" {
		checkHealth(*health)
		return
	}
	if *clusterAd != "" {
		if *clStatus {
			clusterStatus(*clusterAd)
			return
		}
		runCluster(*clusterAd, *inline, *queryFile, *engName, *phiM, *reducers, *splitRecs, *metrics, *limit, *noPart)
		return
	}
	if *serverURL != "" {
		runRemote(*serverURL, *inline, *queryFile, *engName, *phiM, *tenant, *noCache, *metrics, *timeline, *limit)
		return
	}

	if *dataFile == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	src := *inline
	if src == "" {
		if *queryFile == "" {
			fatal(fmt.Errorf("one of -query or -e is required"))
		}
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}

	f, err := os.Open(*dataFile)
	if err != nil {
		fatal(err)
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	pq, err := sparql.Parse(src)
	if err != nil {
		fatal(err)
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		fatal(err)
	}

	if *advise {
		advice, err := ntgamr.Advise(ntgamr.CollectStats(g), q, 8)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "advisor: strategy=%v phiM=%d\n", advice.Strategy, advice.PhiM)
		for _, r := range advice.Reasons {
			fmt.Fprintln(os.Stderr, "  -", r)
		}
	}

	if *optimize {
		r, err := plan.Optimize(plan.FromGraph(g), q)
		if err != nil {
			fatal(err)
		}
		if r.Changed {
			fmt.Fprintf(os.Stderr, "optimizer: join order %v (est shuffle %d, legacy %d)\n",
				r.Order, r.Est, r.LegacyEst)
		} else {
			fmt.Fprintf(os.Stderr, "optimizer: join order kept %v (est shuffle %d)\n", r.Order, r.Est)
		}
	}

	var rows []query.Row
	var lastCount int64
	if *engName == "ref" {
		if *ingestNT != "" || *compact {
			fatal(fmt.Errorf("-ingest/-compact need a MapReduce engine (the reference engine has no versioned store)"))
		}
		if *statsOut != "" {
			if err := plan.FromGraph(g).WriteFile(*statsOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "stats: wrote %s\n", *statsOut)
		}
		rows = refengine.Evaluate(q, g)
	} else {
		eng, err := resolveEngine(*engName, *phiM, g, q)
		if err != nil {
			fatal(err)
		}
		var tracer *trace.Tracer
		if *traceOut != "" || *timeline {
			tracer = trace.New()
		}
		cfg := mapreduce.EngineConfig{
			DefaultReducers: *reducers,
			SplitRecords:    *splitRecs,
			SortBufferBytes: *sortBuf,
			Tracer:          tracer,
			Speculation:     *speculate,
		}
		if *faults != "" {
			fp, attempts, err := parseFaults(*faults)
			if err != nil {
				fatal(err)
			}
			cfg.Faults = fp
			cfg.TaskMaxAttempts = attempts
		}
		mr := mapreduce.NewEngine(
			hdfs.New(hdfs.Config{Nodes: *nodes, Replication: *rep}),
			cfg,
		)
		if err := engine.LoadGraph(mr.DFS(), "data/triples", g); err != nil {
			fatal(err)
		}
		if *statsOut != "" {
			// Build the catalog the way a warehouse would: a map-only MR job
			// over the DFS-resident relation, persisted both as a DFS file
			// (plan-time loading) and as an OS file (ntga-explain -stats).
			cat, err := plan.BuildCatalog(mr, "data/triples", "data/catalog", g.Dict)
			if err != nil {
				fatal(err)
			}
			if err := cat.WriteFile(*statsOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "stats: wrote %s (also persisted to DFS data/catalog)\n", *statsOut)
		}
		// Loader mode: one shuffle job writes the bucketed layout, then the
		// query runs map-only over it. The layout is built — and stamped — at
		// the base dataset version, BEFORE any -ingest lands, mirroring a
		// warehouse whose layout predates the deltas: an un-compacted chain
		// makes it stale (shuffle fallback below), and -compact rewrites the
		// affected buckets and re-stamps the manifest.
		if *partBkts > 0 {
			if _, err := plan.BuildPartitionLayout(mr, "data/triples", *partOut, *partBkts, g.Version()); err != nil {
				fatal(err)
			}
		}

		base, deltas := "data/triples", []string(nil)
		dataVer := g.Version()
		if *ingestNT != "" || *compact {
			st, err := ingest.Init(mr.DFS(), base, g)
			if err != nil {
				fatal(err)
			}
			for _, path := range strings.Split(*ingestNT, ",") {
				path = strings.TrimSpace(path)
				if path == "" {
					continue
				}
				df, err := os.Open(path)
				if err != nil {
					fatal(err)
				}
				ires, err := st.Ingest(df)
				df.Close()
				if err != nil {
					fatal(fmt.Errorf("ingesting %s: %w", path, err))
				}
				fmt.Fprintf(os.Stderr, "ingest: %s: %d triples as block %s (dataset %s)\n",
					path, len(ires.Triples), ires.Block.File, ires.Version)
			}
			if *compact {
				opts := ingest.CompactOptions{}
				if *partBkts > 0 {
					opts.LayoutDir = *partOut
				}
				cres, err := st.Compact(mr, opts)
				if err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "compact: folded %d blocks (%d triples) into base generation %d; %d layout buckets rewritten\n",
					cres.Folded, cres.FoldedTriples, cres.Gen, cres.BucketsRewritten)
			}
			man := st.Manifest()
			base, deltas, dataVer = man.Base, man.DeltaFiles(), st.Version()
			// Delta batches may mint terms the query names; re-compile against
			// the extended dictionary so those constants resolve.
			if q, err = query.Compile(pq, g.Dict); err != nil {
				fatal(err)
			}
		}

		// Reloading the layout through the manifest exercises the production
		// path — a stale or missing layout degrades to the flat plan with a
		// warning instead of failing.
		var part *plan.Partitioning
		if *partBkts > 0 {
			part, err = plan.LoadPartitioning(mr.DFS(), *partOut, dataVer)
			if err != nil {
				fmt.Fprintf(os.Stderr, "partition: layout %s unusable (%v); falling back to the shuffle path\n", *partOut, err)
				part = nil
			} else {
				fmt.Fprintf(os.Stderr, "partition: built layout %s (%s)\n", *partOut, part)
			}
		}
		res, err := engine.Run(eng, mr, q, plan.Source{Base: base, Deltas: deltas, Part: part})
		if tracer != nil {
			// Export whatever spans were recorded even on failure — a trace
			// of a failed workflow is exactly when you want the profile.
			if *traceOut != "" {
				if werr := writeTrace(*traceOut, tracer); werr != nil {
					fatal(werr)
				}
				fmt.Fprintf(os.Stderr, "trace: wrote %s\n", *traceOut)
			}
			if *timeline {
				fmt.Fprint(os.Stderr, trace.Timeline(tracer.Roots()))
			}
		}
		if *faults != "" || *speculate {
			// A recovery summary is most interesting when the run needed
			// recovering — print it even for a failed workflow.
			printRecovery(res)
		}
		if err != nil {
			fatal(err)
		}
		rows = res.Rows
		lastCount = res.Count
		if *metrics {
			printMetrics(res)
		}
	}

	if q.IsCount() {
		// rows is nil for distributed engines (they count without
		// expanding); the reference engine materializes rows.
		count := int64(len(rows))
		if *engName != "ref" {
			count = lastCount
		}
		fmt.Printf("?%s\n%d\n", q.Src.CountVar, count)
		return
	}

	projected := q.ProjectAll(rows)
	header := ""
	for i, v := range q.Select {
		if i > 0 {
			header += "\t"
		}
		header += "?" + v
	}
	fmt.Println(header)
	for i, r := range projected {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more rows)\n", len(projected)-i)
			break
		}
		fmt.Println(q.FormatRow(r))
	}
	fmt.Fprintf(os.Stderr, "%d rows\n", len(projected))
}

// resolveEngine maps the -engine flag to an engine. "auto" asks the cost
// advisor: it picks the NTGA strategy (eager vs lazy) and φ_m from the
// dataset statistics — the same recommendation `-advise` prints.
func resolveEngine(name string, phiM int, g *rdf.Graph, q *query.Query) (engine.QueryEngine, error) {
	if name != "auto" {
		return engines.ByName(name, phiM)
	}
	advice, err := ntgamr.Advise(ntgamr.CollectStats(g), q, 8)
	if err != nil {
		return nil, err
	}
	if phiM > 0 {
		advice.PhiM = phiM
	}
	eng := advice.Engine()
	fmt.Fprintf(os.Stderr, "auto: selected %s (phiM=%d)\n", eng.Name(), advice.PhiM)
	return eng, nil
}

func printMetrics(res *engine.Result) {
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
		t.AddRow(j.Job, j.Duration.Round(1000).String(), stats.FormatBytes(j.MapInputBytes),
			stats.FormatBytes(j.MapOutputBytes), stats.FormatBytes(j.SpilledBytes),
			j.MergePasses, stats.FormatBytes(j.ReduceOutputBytes),
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
	fmt.Fprintln(os.Stderr, t.Render())
	fmt.Fprintf(os.Stderr, "cycles=%d peakDisk=%s peakSortBuffer=%s outputRecords=%d outputBytes=%s\n",
		res.Workflow.Cycles, stats.FormatBytes(res.PeakDFSUsed),
		stats.FormatBytes(res.Workflow.MaxPeakSortBufferBytes()),
		res.OutputRecords, stats.FormatBytes(res.OutputBytes))
	for name, v := range res.Counters {
		fmt.Fprintf(os.Stderr, "counter %s = %d\n", name, v)
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
func runCluster(addr, inline, queryFile, engName string, phiM, reducers, splitRecords int, metrics bool, limit int, noPartition bool) {
	src := inline
	if src == "" {
		if queryFile == "" {
			fatal(fmt.Errorf("one of -query or -e is required"))
		}
		b, err := os.ReadFile(queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}
	c, err := cluster.Dial(nil, addr)
	if err != nil {
		fatal(fmt.Errorf("dialing master %s: %w", addr, err))
	}
	defer c.Close()
	reply, err := c.Run(context.Background(), &cluster.RunArgs{
		Query:        src,
		Engine:       engName,
		PhiM:         phiM,
		Reducers:     reducers,
		SplitRecords: splitRecords,
		NoPartition:  noPartition,
	})
	if err != nil {
		fatal(err)
	}
	if metrics {
		printMetrics(&engine.Result{
			Engine:        reply.Engine,
			Workflow:      reply.Workflow,
			Counters:      reply.Counters,
			OutputRecords: reply.OutputRecords,
			OutputBytes:   reply.OutputBytes,
			PeakDFSUsed:   reply.PeakDFSUsed,
		})
	}
	if reply.IsCount {
		fmt.Printf("%s\n%d\n", reply.Header[0], reply.Count)
		return
	}
	fmt.Println(strings.Join(reply.Header, "\t"))
	for i, r := range reply.RowsText {
		if limit > 0 && i >= limit {
			fmt.Printf("... (%d more rows)\n", len(reply.RowsText)-i)
			break
		}
		fmt.Println(r)
	}
	fmt.Fprintf(os.Stderr, "%d rows\n", reply.TotalRows)
}

// clusterStatus prints the master's view of the cluster: dataset identity,
// per-worker liveness and slot occupancy, and scheduler totals.
func clusterStatus(addr string) {
	c, err := cluster.Dial(nil, addr)
	if err != nil {
		fatal(fmt.Errorf("dialing master %s: %w", addr, err))
	}
	defer c.Close()
	st, err := c.Status(context.Background())
	if err != nil {
		fatal(err)
	}
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	fmt.Printf("master %s: %d triples, dataset %s\n", addr, st.Triples, st.DatasetVersion)
	fmt.Printf("workers: %d alive / %d registered, workers_lost=%d, active_queries=%d, tasks_dispatched=%d\n",
		alive, len(st.Workers), st.WorkersLost, st.ActiveQueries, st.TasksDispatched)
	fmt.Printf("transport: rpc_retries=%d redials=%d fetch_transient_retries=%d worker_reregistrations=%d\n",
		st.RPCRetries, st.Redials, st.FetchTransientRetries, st.WorkerReregistrations)
	fmt.Printf("scheduler: affine_leases=%d\n", st.AffineLeases)
	for _, w := range st.Workers {
		state := "alive"
		if !w.Alive {
			state = "dead"
		}
		fmt.Printf("  worker %d %s %s map %d/%d reduce %d/%d done=%d failed=%d\n",
			w.ID, w.Addr, state, w.MapBusy, w.MapSlots, w.ReduceBusy, w.ReduceSlots,
			w.TasksDone, w.TasksFailed)
	}
}

// printRecovery summarizes what the fault-tolerance machinery did during the
// run: attempts retried or killed, nodes lost, map output regenerated,
// speculative backups raced, and the attempt-private bytes reclaimed.
func printRecovery(res *engine.Result) {
	w := res.Workflow
	fmt.Fprintf(os.Stderr,
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

// checkHealth probes a running daemon's /healthz and exits non-zero if it
// is unreachable or unhealthy (the serve-smoke harness's readiness gate).
func checkHealth(addr string) {
	h, err := server.NewClient(addr).Health(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ok triples=%d dataset=%s uptime=%dms\n", h.Triples, h.DatasetVersion, h.UptimeMS)
}

// runRemote is client mode: ship the query to an ntga-serve daemon and
// print the response in the same shape as a local run (rows on stdout,
// run facts on stderr), so outputs are directly comparable.
func runRemote(addr, inline, queryFile, engName string, phiM int, tenant string, noCache, metrics, timeline bool, limit int) {
	src := inline
	if src == "" {
		if queryFile == "" {
			fatal(fmt.Errorf("one of -query or -e is required"))
		}
		b, err := os.ReadFile(queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}
	req := server.Request{
		Query:    src,
		PhiM:     phiM,
		Tenant:   tenant,
		NoCache:  noCache,
		Limit:    limit,
		Metrics:  metrics,
		Timeline: timeline,
	}
	// The local default is baked into the flag; let the server apply its
	// own default unless the user explicitly picked an engine.
	if engName != "ntga-lazy" {
		req.Engine = engName
	}
	resp, err := server.NewClient(addr).Query(context.Background(), req)
	if err != nil {
		fatal(err)
	}
	if resp.IsCount {
		fmt.Printf("%s\n%d\n", strings.Join(resp.Header, "\t"), resp.Count)
	} else {
		fmt.Println(strings.Join(resp.Header, "\t"))
		for _, r := range resp.Rows {
			fmt.Println(r)
		}
		if resp.TotalRows > len(resp.Rows) {
			fmt.Printf("... (%d more rows)\n", resp.TotalRows-len(resp.Rows))
		}
	}
	if resp.Timeline != "" {
		fmt.Fprint(os.Stderr, resp.Timeline)
	}
	if metrics {
		for _, j := range resp.Jobs {
			fmt.Fprintf(os.Stderr, "job %s: %dms mapIn=%s shuffle=%s reduceOut=%s spilled=%s retries=%d\n",
				j.Job, j.DurationMS, stats.FormatBytes(j.MapInputBytes), stats.FormatBytes(j.ShuffleBytes),
				stats.FormatBytes(j.ReduceOutputBytes), stats.FormatBytes(j.SpilledBytes), j.TaskRetries)
		}
	}
	fmt.Fprintf(os.Stderr, "server: engine=%s cache=%s plan_cache=%s cycles=%d rows=%d shuffle=%s duration=%dms\n",
		resp.Engine, resp.Cache, resp.PlanCache, resp.Cycles, resp.TotalRows,
		stats.FormatBytes(resp.ShuffleBytes), resp.DurationMS)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ntga-run:", err)
	os.Exit(1)
}
