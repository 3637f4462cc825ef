// Network-chaos acceptance: the distributed substrate under a seeded
// NetFaultPlan (dropped dials, injected latency, severed connections) and
// under manual directed partitions must still produce results byte-identical
// to a local run — the retrying transport, shuffle-fetch escalation, and
// worker re-registration absorb the failures instead of surfacing them.
package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// chaosRetry is aggressive enough to out-retry the seeded fault rates
// without stretching the suite.
var chaosRetry = cluster.RetryPolicy{
	MaxAttempts: 5,
	BaseBackoff: 2 * time.Millisecond,
	MaxBackoff:  25 * time.Millisecond,
	Seed:        1,
}

func chaosWorkerConfig() cluster.WorkerConfig {
	return cluster.WorkerConfig{
		MapSlots:            2,
		ReduceSlots:         2,
		Retry:               chaosRetry,
		FetchRetries:        3,
		MasterLossThreshold: 2,
		MaxPeerConns:        1,
		PeerIdleTimeout:     250 * time.Millisecond,
	}
}

func chaosMasterConfig(splitRecords int) cluster.MasterConfig {
	return cluster.MasterConfig{
		Reducers:         parityReducers,
		SplitRecords:     splitRecords,
		HeartbeatTimeout: 500 * time.Millisecond,
		HeartbeatEvery:   40 * time.Millisecond,
		LeaseEvery:       2 * time.Millisecond,
		LeaseTimeout:     5 * time.Second,
		MaxTaskAttempts:  8,
	}
}

// startChaosTestCluster is startTestCluster with every master/worker edge
// routed through one ChaosNetwork (labels "master", "w1", ..). The
// front-end client dials plain TCP — the chaos transport only wraps its own
// dials, so the submission edge stays clean and every run's outcome
// isolates the master/worker edges under test.
func startChaosTestCluster(t *testing.T, net *cluster.ChaosNetwork, g *rdf.Graph, nWorkers int, wcfg cluster.WorkerConfig, mcfg cluster.MasterConfig) *testCluster {
	t.Helper()
	mcfg.Transport = net.Transport("master", nil)
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
		label := workerLabel(i)
		w := cluster.NewWorker(wcfg, net.Transport(label, nil), m.Addr())
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

func workerLabel(i int) string {
	return fmt.Sprintf("w%d", i+1)
}

// TestCrossTransportChaosParity runs catalog queries on a 3-worker cluster
// whose every master/worker edge suffers seeded drops, delays, and severs,
// and requires byte-identical rows, counts, and output shape versus a clean
// local run. -short trims to the first dataset on one engine; the full run
// sweeps every catalog query.
func TestCrossTransportChaosParity(t *testing.T) {
	ctx := context.Background()
	plan := cluster.NetFaultPlan{
		Seed:      20260808,
		DropRate:  0.03,
		SeverRate: 0.01,
		DelayRate: 0.05,
		Delay:     time.Millisecond,
	}
	engines := []string{"ntga-lazy", "ntga-eager"}
	byDataset := make(map[string][]bench.CatalogQuery)
	for _, cq := range bench.Catalog() {
		byDataset[cq.Dataset] = append(byDataset[cq.Dataset], cq)
	}
	datasets := make([]string, 0, len(byDataset))
	for ds := range byDataset {
		datasets = append(datasets, ds)
	}
	if testing.Short() {
		datasets = datasets[:1]
		engines = engines[:1]
	}
	for _, ds := range datasets {
		cqs := byDataset[ds]
		if testing.Short() && len(cqs) > 2 {
			cqs = cqs[:2]
		}
		t.Run(ds, func(t *testing.T) {
			g, err := bench.Dataset(ds, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			net := cluster.NewChaosNetwork(plan)
			tc := startChaosTestCluster(t, net, g, 3, chaosWorkerConfig(), chaosMasterConfig(paritySplit))
			for _, cq := range cqs {
				q := enginetest.Compile(t, g, cq.Src)
				for _, en := range engines {
					local, lerr := runLocal(t, g, q, en)
					reply, derr := tc.client.Run(ctx, &cluster.RunArgs{
						Query:        cq.Src,
						Engine:       en,
						Reducers:     parityReducers,
						SplitRecords: paritySplit,
						TimeoutMS:    120_000,
					})
					if lerr != nil {
						if derr == nil {
							t.Errorf("%s/%s: local refused (%v) but distributed ran", cq.ID, en, lerr)
						}
						continue
					}
					if derr != nil {
						t.Errorf("%s/%s: chaos run failed: %v", cq.ID, en, derr)
						continue
					}
					if local.IsCount != reply.IsCount || local.Count != reply.Count {
						t.Errorf("%s/%s: count mismatch under chaos: local (%v, %d) vs distributed (%v, %d)",
							cq.ID, en, local.IsCount, local.Count, reply.IsCount, reply.Count)
					}
					if !sameRows(local.Rows, reply.Rows) {
						t.Errorf("%s/%s: rows not byte-identical under chaos (local %d, distributed %d)",
							cq.ID, en, len(local.Rows), len(reply.Rows))
					}
					if local.OutputRecords != reply.OutputRecords || local.OutputBytes != reply.OutputBytes {
						t.Errorf("%s/%s: output shape mismatch under chaos: local (%d recs, %d B) vs distributed (%d recs, %d B)",
							cq.ID, en, local.OutputRecords, local.OutputBytes, reply.OutputRecords, reply.OutputBytes)
					}
					if !sameCounters(local.Counters, reply.Counters) {
						t.Errorf("%s/%s: counters mismatch under chaos", cq.ID, en)
					}
				}
			}
			// The peer pool bound must hold after the sweep (satellite:
			// bounded shuffle connections).
			for i, w := range tc.workers {
				if pc := w.PeerConns(); pc > 1 {
					t.Errorf("worker %d pools %d peer conns, bound is 1", i+1, pc)
				}
			}
			if st := net.Stats(); st.DroppedDials == 0 && st.Severed == 0 && st.Delayed == 0 {
				t.Error("chaos plan injected nothing; the parity sweep proved nothing")
			}
		})
	}
}

// TestDistributedPartitionRecovery cuts one worker off the network (master
// and peers, both directions) mid-query, lets the master declare it dead and
// re-execute its work, then heals the partition and requires (a) the query
// to finish byte-identical to local, and (b) the returning worker to be
// alive again and serving follow-up queries.
func TestDistributedPartitionRecovery(t *testing.T) {
	cq := bench.Catalog()[0]
	g, err := bench.Dataset(cq.Dataset, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	splitRecords := g.Len() / 24
	if splitRecords < 1 {
		splitRecords = 1
	}
	net := cluster.NewChaosNetwork(cluster.NetFaultPlan{})
	wcfg := chaosWorkerConfig()
	wcfg.TaskDelay = 10 * time.Millisecond
	mcfg := chaosMasterConfig(splitRecords)
	mcfg.HeartbeatTimeout = 300 * time.Millisecond
	tc := startChaosTestCluster(t, net, g, 3, wcfg, mcfg)

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

	// Cut w3 off once it has finished work (so it holds committed map
	// output the survivors must regenerate), keep it dark past the
	// heartbeat timeout, then heal.
	victim := tc.workers[2]
	partitioned := false
	deadline := time.After(60 * time.Second)
	for !partitioned {
		select {
		case o := <-resCh:
			t.Fatalf("query finished before the partition landed (err=%v)", o.err)
		case <-deadline:
			t.Fatal("victim never accumulated tasks")
		case <-time.After(5 * time.Millisecond):
		}
		st := tc.master.Status()
		for _, ws := range st.Workers {
			if ws.ID == victim.ID() && ws.TasksDone >= 2 {
				net.Isolate("w3")
				partitioned = true
				break
			}
		}
	}
	time.Sleep(2 * mcfg.HeartbeatTimeout)
	net.Rejoin("w3")

	o := <-resCh
	if o.err != nil {
		t.Fatalf("query did not survive the partition: %v", o.err)
	}
	if !sameRows(local.Rows, o.reply.Rows) {
		t.Errorf("post-partition rows not identical to local (local %d, distributed %d)", len(local.Rows), len(o.reply.Rows))
	}
	if !query.RowsEqual(refengine.Evaluate(q, g), o.reply.Rows) {
		t.Error("post-partition rows diverge from reference")
	}

	// The healed worker must rejoin the fleet — via a revived heartbeat or
	// a full re-registration, whichever won the race.
	healDeadline := time.Now().Add(15 * time.Second)
	for {
		st := tc.master.Status()
		alive := 0
		for _, ws := range st.Workers {
			if ws.Alive {
				alive++
			}
		}
		if alive == 3 {
			if st.WorkersLost < 1 {
				t.Errorf("partitioned worker was never declared lost (workersLost=%d)", st.WorkersLost)
			}
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("fleet never healed: %d/3 alive", alive)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And it must do real work again: a fresh query, same parity bar.
	reply, err := tc.client.Run(context.Background(), &cluster.RunArgs{
		Query:        cq.Src,
		Engine:       "ntga-lazy",
		Reducers:     parityReducers,
		SplitRecords: splitRecords,
		TimeoutMS:    120_000,
	})
	if err != nil {
		t.Fatalf("post-heal query failed: %v", err)
	}
	if !sameRows(local.Rows, reply.Rows) {
		t.Error("post-heal rows not identical to local")
	}

	// Idle peer eviction: with no traffic, the bounded shuffle pools must
	// drain to zero — the fd-leak fix observable from the outside.
	drainDeadline := time.Now().Add(10 * time.Second)
	for {
		open := 0
		for _, w := range tc.workers {
			open += w.PeerConns()
		}
		if open == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatalf("peer pools never drained: %d conns still open", open)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWorkerReregistersAfterMasterRestart kills the master outright, brings
// a fresh one up on the same address over the same dataset, and requires the
// surviving worker to re-register on its own (new ID, dictionary intact) and
// execute queries for the new master.
func TestWorkerReregistersAfterMasterRestart(t *testing.T) {
	cq := bench.Catalog()[0]
	g, err := bench.Dataset(cq.Dataset, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := chaosMasterConfig(paritySplit)
	m1, err := cluster.NewMaster(mcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := m1.Addr()

	wcfg := chaosWorkerConfig()
	w := cluster.NewWorker(wcfg, nil, addr)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	m1.Close()

	// Same address, same dataset: the worker's re-dialing master link finds
	// the new master, its re-registration gets a fresh ID, and its shipped
	// dictionary stays valid (same dataset version).
	m2, err := cluster.NewMaster(mcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var serveErr error
	for i := 0; i < 100; i++ {
		if serveErr = m2.Serve(addr); serveErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if serveErr != nil {
		t.Fatalf("restarting master on %s: %v", addr, serveErr)
	}
	defer m2.Close()

	deadline := time.Now().Add(20 * time.Second)
	for {
		st := m2.Status()
		alive := 0
		for _, ws := range st.Workers {
			if ws.Alive {
				alive++
			}
		}
		if alive == 1 {
			if st.WorkerReregistrations < 1 {
				t.Errorf("master accepted the worker without counting a re-registration (%d)", st.WorkerReregistrations)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never re-registered with the restarted master (workers=%d)", len(st.Workers))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("worker failed permanently instead of re-registering: %v", err)
	}

	// The re-registered worker must carry real queries for the new master.
	c, err := cluster.Dial(nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := enginetest.Compile(t, g, cq.Src)
	local, err := runLocal(t, g, q, "ntga-lazy")
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Run(context.Background(), &cluster.RunArgs{
		Query:        cq.Src,
		Engine:       "ntga-lazy",
		Reducers:     parityReducers,
		SplitRecords: paritySplit,
		TimeoutMS:    120_000,
	})
	if err != nil {
		t.Fatalf("query after master restart: %v", err)
	}
	if !sameRows(local.Rows, reply.Rows) {
		t.Error("post-restart rows not identical to local")
	}
}

// TestStaleWorkerIDReregistersAfterMasterRestart restarts the master while
// w1 is cut off from it, so w2 re-registers first and the new master hands
// it ID 1 — w1's ID with the old master. When w1's link heals, its stale ID
// must not pass for w2's record: the new master answers it "unknown worker",
// w1 re-registers, and both workers end up registered.
func TestStaleWorkerIDReregistersAfterMasterRestart(t *testing.T) {
	g := enginetest.BioGraph()
	mcfg := chaosMasterConfig(paritySplit)
	m1, err := cluster.NewMaster(mcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := m1.Addr()

	net := cluster.NewChaosNetwork(cluster.NetFaultPlan{})
	var workers []*cluster.Worker
	for _, label := range []string{"w1", "w2"} {
		w := cluster.NewWorker(chaosWorkerConfig(), net.Transport(label, nil), addr)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
	}
	w1, w2 := workers[0], workers[1]
	if w1.ID() != 1 || w2.ID() != 2 {
		t.Fatalf("worker IDs %d, %d; want 1, 2", w1.ID(), w2.ID())
	}

	net.PartitionBoth("w1", addr)
	m1.Close()
	m2, err := cluster.NewMaster(mcfg, g)
	if err != nil {
		t.Fatal(err)
	}
	var serveErr error
	for i := 0; i < 100; i++ {
		if serveErr = m2.Serve(addr); serveErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if serveErr != nil {
		t.Fatalf("restarting master on %s: %v", addr, serveErr)
	}
	defer m2.Close()

	// waitFor polls the new master's status until ok accepts it.
	waitFor := func(what string, ok func(cluster.StatusReply) bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			st := m2.Status()
			if ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: status %+v", what, st.Workers)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("w2 never re-registered as worker 1", func(st cluster.StatusReply) bool {
		return len(st.Workers) == 1 && st.Workers[0].ID == 1 && st.Workers[0].Addr == w2.Addr()
	})
	net.HealBoth("w1", addr)
	waitFor("w1 never re-registered beside w2", func(st cluster.StatusReply) bool {
		alive := 0
		for _, ws := range st.Workers {
			if ws.Alive {
				alive++
			}
		}
		return len(st.Workers) == 2 && alive == 2
	})
	if w1.ID() == w2.ID() {
		t.Errorf("both workers hold ID %d", w1.ID())
	}
}
