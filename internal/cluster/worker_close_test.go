package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ntga/internal/datagen"
	"ntga/internal/engines"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/refengine"
	"ntga/internal/sparql"
)

// TestWorkerCloseStopsInFlightTask closes a worker ("kill -9") while it is
// inside a map task's record loop. The loop must stop at its next checkpoint
// instead of mapping the rest of the split in a goroutine nobody waits for,
// and the master must re-queue the task so the query still finishes right.
func TestWorkerCloseStopsInFlightTask(t *testing.T) {
	g := datagen.BSBM(datagen.BSBMConfig{Products: 40, Seed: 1})
	const src = `PREFIX bsbm: <http://bsbm.example.org/> SELECT * WHERE { ?s ?p ?o . ?o bsbm:country ?c . }`
	if g.Len() < 256 {
		t.Fatalf("graph has %d triples; the one-split map task must span several checkpoints", g.Len())
	}
	m, err := NewMaster(MasterConfig{
		SplitRecords:     g.Len(), // one map task scans the whole relation
		HeartbeatTimeout: 300 * time.Millisecond,
		SweepEvery:       25 * time.Millisecond,
		HeartbeatEvery:   50 * time.Millisecond,
		LeaseEvery:       2 * time.Millisecond,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	startWorker := func() *Worker {
		w := NewWorker(WorkerConfig{MapSlots: 1, ReduceSlots: 1}, nil, m.Addr())
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Rebuild the first query's plan on the victim ahead of time and park
	// every mapper on its first record until the test has closed the worker.
	victim := startWorker()
	defer victim.Close()
	qp, err := victim.planFor("q-000001", &QuerySpec{Query: src, Choice: engines.Choice{Engine: "ntga-lazy"}, Input: m.input})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	for _, job := range qp {
		if inner := job.Mapper; inner != nil {
			job.Mapper = mapreduce.MapperFunc(func(input string, rec []byte, out mapreduce.Emitter) error {
				if calls.Add(1) == 1 {
					close(started)
					<-release
				}
				return inner.Map(input, rec, out)
			})
		}
	}

	type outcome struct {
		reply *RunReply
		err   error
	}
	resCh := make(chan outcome, 1)
	go func() {
		reply, err := m.RunQuery(context.Background(), &RunArgs{Query: src, TimeoutMS: 60_000})
		resCh <- outcome{reply, err}
	}()
	select {
	case <-started:
	case o := <-resCh:
		t.Fatalf("query finished without reaching the victim's mapper (err=%v)", o.err)
	case <-time.After(30 * time.Second):
		t.Fatal("victim never started its map task")
	}
	victim.Close()
	close(release)
	victim.Wait()
	if n := calls.Load(); n > 64 {
		t.Errorf("closed worker mapped %d records of its %d-record split; it must stop at the next checkpoint (64)", n, g.Len())
	}

	survivor := startWorker()
	defer survivor.Close()
	o := <-resCh
	if o.err != nil {
		t.Fatalf("query did not survive the worker kill: %v", o.err)
	}
	if o.reply.Workflow.TotalTaskRetries() < 1 {
		t.Error("master never re-queued the killed worker's task")
	}
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		t.Fatal(err)
	}
	if !query.RowsEqual(refengine.Evaluate(q, g), o.reply.Rows) {
		t.Error("rows after the kill diverge from the reference")
	}
}
