package cluster

import (
	"fmt"
	"net/rpc"
	"testing"
	"time"

	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
)

// reportFixture is a serving master holding one shuffle job in its reduce
// phase: map task 0 committed on a registered, live worker, reduce task 0
// pending. Tests drive it over the master's real RPC endpoint.
type reportFixture struct {
	m      *Master
	c      *rpc.Client
	worker int
	epoch  int64
	js     *jobState
}

func newReportFixture(t *testing.T) *reportFixture {
	t.Helper()
	m, err := NewMaster(MasterConfig{HeartbeatTimeout: time.Minute}, enginetest.BioGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	c, err := dialRPC(m.cfg.Transport, m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var reg RegisterReply
	if err := c.Call("Master.Register", &RegisterArgs{Addr: "127.0.0.1:1", MapSlots: 1, ReduceSlots: 1}, &reg); err != nil {
		t.Fatal(err)
	}
	const qid = "q-report"
	js := &jobState{
		qid:       qid,
		job:       &mapreduce.Job{Name: "j", Inputs: []string{m.input}, Output: "out"},
		splits:    []mapreduce.Split{{Input: m.input, N: -1}},
		mapKind:   "map",
		nReducers: 1,
		maps:      []*taskState{{done: true, holder: reg.Worker, attempts: 1}},
		reduces:   []*taskState{{holder: -1}},
		mapsDone:  1,
		doneCh:    make(chan struct{}),
	}
	m.mu.Lock()
	m.jobSeq++
	js.id = m.jobSeq
	m.jobs = append(m.jobs, js)
	m.queries[qid] = &queryState{id: qid, bucketHolder: map[int]int{}}
	m.mu.Unlock()
	return &reportFixture{m: m, c: c, worker: reg.Worker, epoch: reg.Epoch, js: js}
}

// state renders the job's scheduling state, for before/after comparisons.
func (f *reportFixture) state() string {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	s := fmt.Sprintf("finished=%v err=%v mapsDone=%d recoveries=%d", f.js.finished, f.js.err, f.js.mapsDone, f.js.recoveries)
	for _, ts := range append(append([]*taskState(nil), f.js.maps...), f.js.reduces...) {
		s += fmt.Sprintf(" {done=%v leased=%v holder=%d attempts=%d charged=%d}", ts.done, ts.leased, ts.holder, ts.attempts, ts.charged())
	}
	return s
}

func (f *reportFixture) report(t *testing.T, args ReportArgs) {
	t.Helper()
	args.Worker, args.Epoch, args.JobID = f.worker, f.epoch, f.js.id
	var ack ReportReply
	if err := f.c.Call("Master.Report", &args, &ack); err != nil {
		t.Fatalf("report %+v: %v", args, err)
	}
}

// TestReportRejectsNegativeIndexes sends reports naming task -1 and lost map
// -1. The master must drop them — not panic inside its RPC handler, which
// would kill the process — keep serving, and leave the job as it was.
func TestReportRejectsNegativeIndexes(t *testing.T) {
	f := newReportFixture(t)
	before := f.state()
	f.report(t, ReportArgs{Kind: "reduce", Task: -1, Err: "boom"})
	f.report(t, ReportArgs{Kind: "map", Task: -1, OK: true})
	f.report(t, ReportArgs{Kind: "reduce", Task: 0, Err: "fetch", LostMaps: []int{-1}})
	var hb HeartbeatReply
	if err := f.c.Call("Master.Heartbeat", &HeartbeatArgs{Worker: f.worker, Epoch: f.epoch}, &hb); err != nil {
		t.Fatalf("master stopped serving: %v", err)
	}
	if st := f.m.Status(); len(st.Workers) != 1 || !st.Workers[0].Alive {
		t.Errorf("status workers = %+v, want the one live worker", st.Workers)
	}
	if after := f.state(); after != before {
		t.Errorf("job state changed:\nbefore %s\nafter  %s", before, after)
	}
}

// TestFetchFailuresChargeTheMap sends four fetch-failure reports from the
// reduce task against a holder that still looks alive. They are charged to
// the map, not to the reduce's attempt budget (4): the job keeps running,
// and the map output re-executes after the second report.
func TestFetchFailuresChargeTheMap(t *testing.T) {
	f := newReportFixture(t)
	for i := 0; i < 4; i++ {
		var lease LeaseReply
		if err := f.c.Call("Master.Lease", &LeaseArgs{Worker: f.worker, Epoch: f.epoch, Kind: "reduce"}, &lease); err != nil {
			t.Fatal(err)
		}
		if i < 2 && lease.Task == nil {
			t.Fatalf("report %d: the reduce was not leased", i)
		}
		f.report(t, ReportArgs{Kind: "reduce", Task: 0, Err: "map output unavailable", LostMaps: []int{0}})
		if i == 0 {
			if got := f.state(); got != "finished=false err=<nil> mapsDone=1 recoveries=0 {done=true leased=false holder=1 attempts=1 charged=1} {done=false leased=false holder=-1 attempts=1 charged=0}" {
				t.Errorf("after one report: %s; want the map kept (a transient failure), the reduce uncharged", got)
			}
		}
	}
	want := "finished=false err=<nil> mapsDone=0 recoveries=1 {done=false leased=false holder=-1 attempts=1 charged=1} {done=false leased=false holder=-1 attempts=2 charged=0}"
	if got := f.state(); got != want {
		t.Errorf("after four reports:\n got %s\nwant %s", got, want)
	}
	// The re-queued map is the next task the worker leases.
	var lease LeaseReply
	if err := f.c.Call("Master.Lease", &LeaseArgs{Worker: f.worker, Epoch: f.epoch, Kind: "map"}, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Task == nil || lease.Task.JobID != f.js.id || lease.Task.Kind != "map" || lease.Task.Task != 0 || lease.Task.Attempt != 1 {
		t.Errorf("map lease = %+v, want the job's map task 0, attempt 1", lease.Task)
	}
}

// TestRevivalCarriesTransportCounts declares the fixture's worker dead and
// revives it. A lease poll from the dead worker must neither revive it nor
// grant it work, and a re-registration that revives it must fold its
// transport counts in the same call: Status read right after the revival
// shows the worker alive with its counts, never alive without them.
func TestRevivalCarriesTransportCounts(t *testing.T) {
	f := newReportFixture(t)
	f.m.sweep(time.Now().Add(time.Hour))
	if st := f.m.Status(); st.WorkersLost != 1 || st.Workers[0].Alive {
		t.Fatalf("after the sweep: lost %d, workers %+v; want the worker dead", st.WorkersLost, st.Workers)
	}
	var lease LeaseReply
	if err := f.c.Call("Master.Lease", &LeaseArgs{Worker: f.worker, Epoch: f.epoch, Kind: "map"}, &lease); err != nil {
		t.Fatal(err)
	}
	if st := f.m.Status(); lease.Task != nil || st.Workers[0].Alive {
		t.Errorf("a lease poll from the dead worker granted %+v and left it alive=%v", lease.Task, st.Workers[0].Alive)
	}
	counts := TransportCounts{RPCRetries: 3, Redials: 2, FetchRetries: 1}
	var reg RegisterReply
	if err := f.c.Call("Master.Register", &RegisterArgs{
		Addr: "127.0.0.1:1", MapSlots: 1, ReduceSlots: 1,
		PrevWorker: f.worker, PrevEpoch: f.epoch, TransportCounts: counts,
	}, &reg); err != nil {
		t.Fatal(err)
	}
	st := f.m.Status()
	if reg.Worker != f.worker || len(st.Workers) != 1 || !st.Workers[0].Alive {
		t.Fatalf("re-registration got ID %d, workers %+v; want worker %d revived", reg.Worker, st.Workers, f.worker)
	}
	if st.RPCRetries != 3 || st.Redials != 2 || st.FetchTransientRetries != 1 || st.WorkerReregistrations != 1 {
		t.Errorf("status right after the revival: retries %d, redials %d, fetch retries %d, re-registrations %d; want 3, 2, 1, 1",
			st.RPCRetries, st.Redials, st.FetchTransientRetries, st.WorkerReregistrations)
	}
}
