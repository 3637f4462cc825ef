package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ntga/internal/enginetest"
	"ntga/internal/query"
	"ntga/internal/refengine"
)

// heldLeases is how many Lease calls wait at the master.
func (m *Master) heldLeases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held
}

// waitFor polls ok every millisecond until it holds, failing the test after
// d.
func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}

// TestHeldLeasesEndCleanly parks every executor of a 3-worker cluster (2 map
// and 2 reduce slots each) in a Lease call held at the master, then stops
// the master and every worker: the calls must not hold either up, and every
// goroutine the cluster started must exit.
func TestHeldLeasesEndCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := NewMaster(MasterConfig{}, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	for range 3 {
		w := NewWorker(WorkerConfig{}, nil, m.Addr())
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	waitFor(t, 10*time.Second, "all 12 Lease calls held", func() bool { return m.heldLeases() == 12 })
	start := time.Now()
	m.Close()
	for _, w := range workers {
		w.Close()
		w.Wait()
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("closing the master and its workers took %v with every Lease call held, want at most 1s", d)
	}
	waitFor(t, 5*time.Second, "goroutines back to the pre-start level", func() bool { return runtime.NumGoroutine() <= before+2 })
}

// TestLostGrantReclaimedByHeartbeat severs a worker's link while its Lease
// calls wait at the master, then submits a query: the master grants tasks
// into replies that can no longer arrive. Once the link heals, the worker's
// heartbeats do not name those attempts, and the master reclaims them
// within two heartbeats — neither the 60 s lease timeout nor the 5 s
// heartbeat timeout ends them — uncharged, and the query's rows are the
// reference's.
func TestLostGrantReclaimedByHeartbeat(t *testing.T) {
	g := enginetest.BioGraph()
	const src = `PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:name ?n . ?s ?p ?o . }`
	net := NewChaosNetwork(NetFaultPlan{})
	m, err := NewMaster(MasterConfig{
		SplitRecords:     max(g.Len()/4, 1),
		HeartbeatEvery:   200 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
		LeaseTimeout:     60 * time.Second,
		LeaseEvery:       2 * time.Millisecond,
		Transport:        net.Transport("master", nil),
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w := NewWorker(WorkerConfig{Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond}}, net.Transport("w1", nil), m.Addr())
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, 10*time.Second, "the worker's 4 Lease calls held", func() bool { return m.heldLeases() == 4 })

	net.PartitionBoth("w1", "master")
	type outcome struct {
		reply *RunReply
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		reply, err := m.RunQuery(context.Background(), &RunArgs{Query: src, TimeoutMS: 60_000})
		done <- outcome{reply, err}
	}()
	waitFor(t, 5*time.Second, "a grant into a severed reply", func() bool { return m.Status().TasksDispatched > 0 })
	beats := func() (int64, int64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.s.workers[0].beats, m.s.counts.LeasesReclaimed
	}
	healed, _ := beats()
	net.HealBoth("w1", "master")
	var reclaimedAt int64
	waitFor(t, 10*time.Second, "a reclaim", func() bool {
		b, n := beats()
		reclaimedAt = b
		return n > 0
	})
	if n := reclaimedAt - healed; n > 2 {
		t.Errorf("the lost grants were reclaimed %d heartbeats after the heal, want at most 2", n)
	}

	o := <-done
	if o.err != nil {
		t.Fatalf("query: %v", o.err)
	}
	q := enginetest.Compile(t, g, src)
	if !query.RowsEqual(refengine.Evaluate(q, g), o.reply.Rows) {
		t.Error("rows after the reclaim diverge from the reference")
	}
	if st := m.Status(); st.LeasesExpired != 0 || st.WorkersLost != 0 || st.LeasesReclaimed == 0 {
		t.Errorf("leases expired %d, reclaimed %d, workers lost %d; want the lost grants reclaimed and nothing else", st.LeasesExpired, st.LeasesReclaimed, st.WorkersLost)
	}
}
