// Cross-transport parity: every catalog query, on every engine family,
// executed once on the in-process engine and once on a real 3-worker
// distributed cluster (workers as goroutine-hosted RPC servers over
// loopback TCP), must produce byte-identical results — same rows in the
// same order, same output file shape, same engine counters. A second suite
// kills a worker mid-job and requires the run to recover and still match.
package cluster_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// parityEngines is the chaos-suite line-up plus the remaining relational
// baselines — every engine family the repo ships.
var parityEngines = []string{"pig", "hive", "sj-per-cycle", "sel-sj-first", "ntga-eager", "ntga-lazy"}

const (
	parityReducers = 4
	paritySplit    = 512
)

// testCluster is one in-test master + N loopback workers + a client.
type testCluster struct {
	master  *cluster.Master
	workers []*cluster.Worker
	client  *cluster.Client
}

func startTestCluster(t *testing.T, g *rdf.Graph, nWorkers int, wcfg cluster.WorkerConfig, mcfg cluster.MasterConfig) *testCluster {
	t.Helper()
	// Tight intervals keep the lease/heartbeat machinery honest without
	// slowing the suite.
	if mcfg.HeartbeatTimeout == 0 {
		mcfg.HeartbeatTimeout = 400 * time.Millisecond
	}
	if mcfg.HeartbeatEvery == 0 {
		mcfg.HeartbeatEvery = 50 * time.Millisecond
	}
	if mcfg.LeaseEvery == 0 {
		mcfg.LeaseEvery = 2 * time.Millisecond
	}
	if mcfg.LeaseTimeout == 0 {
		mcfg.LeaseTimeout = 5 * time.Second
	}
	m, err := cluster.NewMaster(mcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{master: m}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.Close()
		}
		if tc.client != nil {
			tc.client.Close()
		}
		m.Close()
	})
	for i := 0; i < nWorkers; i++ {
		w := cluster.NewWorker(wcfg, nil, m.Addr())
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		tc.workers = append(tc.workers, w)
	}
	c, err := cluster.Dial(nil, m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	tc.client = c
	return tc
}

// runLocal executes the query on a fresh in-process engine with the same
// reducer and split settings the distributed run uses.
func runLocal(t *testing.T, g *rdf.Graph, q *query.Query, engName string) (*engine.Result, error) {
	t.Helper()
	eng, err := bench.EngineByName(engName, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr := mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 8}),
		mapreduce.EngineConfig{DefaultReducers: parityReducers, SplitRecords: paritySplit},
	)
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	return engine.Run(eng, mr, q, plan.Source{Base: input})
}

func sameRows(a, b []query.Row) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func sameCounters(a, b map[string]int64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestCrossTransportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed parity sweep")
	}
	ctx := context.Background()
	byDataset := make(map[string][]bench.CatalogQuery)
	for _, cq := range bench.Catalog() {
		byDataset[cq.Dataset] = append(byDataset[cq.Dataset], cq)
	}
	for ds, cqs := range byDataset {
		t.Run(ds, func(t *testing.T) {
			g, err := bench.Dataset(ds, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			tc := startTestCluster(t, g, 3, cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2}, cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit})
			for _, cq := range cqs {
				q := enginetest.Compile(t, g, cq.Src)
				want := refengine.Evaluate(q, g)
				for _, en := range parityEngines {
					local, lerr := runLocal(t, g, q, en)
					reply, derr := tc.client.Run(ctx, &cluster.RunArgs{
						Query:        cq.Src,
						Engine:       en,
						Reducers:     parityReducers,
						SplitRecords: paritySplit,
						TimeoutMS:    120_000,
					})
					if lerr != nil {
						// Engines that cannot plan a query (e.g.
						// Sel-SJ-first on unbound stars) must refuse it
						// identically on both substrates.
						if derr == nil {
							t.Errorf("%s/%s: local refused (%v) but distributed ran", cq.ID, en, lerr)
						}
						continue
					}
					if derr != nil {
						t.Errorf("%s/%s: distributed run failed: %v", cq.ID, en, derr)
						continue
					}
					if local.IsCount != reply.IsCount || local.Count != reply.Count {
						t.Errorf("%s/%s: count mismatch: local (%v, %d) vs distributed (%v, %d)",
							cq.ID, en, local.IsCount, local.Count, reply.IsCount, reply.Count)
					}
					if !sameRows(local.Rows, reply.Rows) {
						t.Errorf("%s/%s: rows not byte-identical (local %d rows, distributed %d rows)",
							cq.ID, en, len(local.Rows), len(reply.Rows))
					}
					if !local.IsCount && !query.RowsEqual(want, reply.Rows) {
						t.Errorf("%s/%s: distributed rows diverge from reference", cq.ID, en)
					}
					if local.OutputRecords != reply.OutputRecords || local.OutputBytes != reply.OutputBytes {
						t.Errorf("%s/%s: output file mismatch: local (%d recs, %d B) vs distributed (%d recs, %d B)",
							cq.ID, en, local.OutputRecords, local.OutputBytes, reply.OutputRecords, reply.OutputBytes)
					}
					if !sameCounters(local.Counters, reply.Counters) {
						t.Errorf("%s/%s: counters mismatch: local %v vs distributed %v",
							cq.ID, en, local.Counters, reply.Counters)
					}
					if len(local.Workflow.Jobs) != len(reply.Workflow.Jobs) {
						t.Errorf("%s/%s: cycle count mismatch: local %d vs distributed %d",
							cq.ID, en, len(local.Workflow.Jobs), len(reply.Workflow.Jobs))
					}
				}
			}
		})
	}
}

// TestDistributedWorkerKillRecovery kills one worker while a query is mid
// flight. The master must declare it dead, re-queue its leases and its
// committed map outputs, and finish the query with results identical to a
// local run — and with the same counts: a re-executed map task replaces
// its first winner's map output and counters instead of adding to them.
func TestDistributedWorkerKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed kill round")
	}
	cq := bench.Catalog()[0]
	g, err := bench.Dataset(cq.Dataset, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Size splits so the first job has plenty of map tasks, and stretch
	// each task, so the kill lands mid-job with work both done and owed.
	splitRecords := g.Len() / 24
	if splitRecords < 1 {
		splitRecords = 1
	}
	tc := startTestCluster(t, g, 3,
		cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2, TaskDelay: 15 * time.Millisecond},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: splitRecords})

	q := enginetest.Compile(t, g, cq.Src)
	local, err := runLocalSplit(t, g, q, "ntga-lazy", splitRecords)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		reply *cluster.RunReply
		err   error
	}
	resCh := make(chan outcome, 1)
	go func() {
		reply, err := tc.client.Run(context.Background(), &cluster.RunArgs{
			Query:        cq.Src,
			Engine:       "ntga-lazy",
			Reducers:     parityReducers,
			SplitRecords: splitRecords,
			TimeoutMS:    120_000,
		})
		resCh <- outcome{reply, err}
	}()

	// Kill the victim once it has finished at least two tasks, so it holds
	// committed map output the survivors must regenerate.
	victim := tc.workers[2]
	killed := false
	deadline := time.After(60 * time.Second)
	for !killed {
		select {
		case o := <-resCh:
			t.Fatalf("query finished before the kill landed (err=%v); shrink TaskDelay tuning", o.err)
		case <-deadline:
			t.Fatal("victim never accumulated tasks")
		case <-time.After(5 * time.Millisecond):
		}
		st := tc.master.Status()
		for _, ws := range st.Workers {
			if ws.ID == victim.ID() && ws.TasksDone >= 2 {
				victim.Close()
				killed = true
				break
			}
		}
	}

	o := <-resCh
	if o.err != nil {
		t.Fatalf("query did not survive the worker kill: %v", o.err)
	}
	if !sameRows(local.Rows, o.reply.Rows) {
		t.Errorf("post-kill rows not identical to local run (local %d, distributed %d)", len(local.Rows), len(o.reply.Rows))
	}
	if !query.RowsEqual(refengine.Evaluate(q, g), o.reply.Rows) {
		t.Error("post-kill rows diverge from reference")
	}
	st := tc.master.Status()
	if st.WorkersLost < 1 {
		t.Errorf("master never declared the killed worker lost (workersLost=%d)", st.WorkersLost)
	}
	if !sameCounters(local.Counters, o.reply.Counters) {
		t.Errorf("post-kill counters %v, local %v", o.reply.Counters, local.Counters)
	}
	lj, dj := local.Workflow.Jobs, o.reply.Workflow.Jobs
	if len(lj) != len(dj) {
		t.Fatalf("post-kill run has %d jobs, local %d", len(dj), len(lj))
	}
	for i := range lj {
		l, d := lj[i], dj[i]
		if l.MapOutputRecords != d.MapOutputRecords || l.MapOutputBytes != d.MapOutputBytes ||
			l.ReduceOutputRecords != d.ReduceOutputRecords || l.ReduceOutputBytes != d.ReduceOutputBytes ||
			!sameCounters(l.Counters, d.Counters) {
			t.Errorf("job %d (%s) after the kill: map output %d recs / %d B, reduce output %d recs / %d B, counters %v; "+
				"local %d / %d, %d / %d, %v", i, d.Job,
				d.MapOutputRecords, d.MapOutputBytes, d.ReduceOutputRecords, d.ReduceOutputBytes, d.Counters,
				l.MapOutputRecords, l.MapOutputBytes, l.ReduceOutputRecords, l.ReduceOutputBytes, l.Counters)
		}
	}
	recovered := o.reply.Workflow.TotalTaskRetries() + o.reply.Workflow.TotalMapOutputRecoveries()
	if recovered < 1 {
		t.Errorf("no recovery work recorded (retries+mapOutputRecoveries=%d); the kill was a no-op", recovered)
	}
}

// runLocalSplit is runLocal with an explicit split size (the kill test
// shrinks splits to stretch the job).
func runLocalSplit(t *testing.T, g *rdf.Graph, q *query.Query, engName string, splitRecords int) (*engine.Result, error) {
	t.Helper()
	eng, err := bench.EngineByName(engName, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr := mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 8}),
		mapreduce.EngineConfig{DefaultReducers: parityReducers, SplitRecords: splitRecords},
	)
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	return engine.Run(eng, mr, q, plan.Source{Base: input})
}
