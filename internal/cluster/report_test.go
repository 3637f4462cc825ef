package cluster

import (
	"fmt"
	"testing"
	"time"
)

// reportFixture is a scheduling core holding one shuffle job in its reduce
// phase: map task 0 committed on a registered, live worker, reduce task 0
// pending. Tests drive it with core events.
type reportFixture struct {
	*rig
	worker int
	js     *jobState
}

func newReportFixture(t *testing.T) *reportFixture {
	t.Helper()
	r := newRig(MasterConfig{HeartbeatTimeout: time.Minute})
	w := r.register(RegisterArgs{Addr: "127.0.0.1:1", MapSlots: 1, ReduceSlots: 1})
	js := r.shuffleJob(1, nil)
	m := r.lease(w, "map")
	r.report(ReportArgs{Worker: w, JobID: js.id, Kind: "map", Task: m.Task, Attempt: m.Attempt, OK: true})
	if r.fault != "" || !js.maps[0].done {
		t.Fatalf("fixture: map 0 not committed (%s)", r.fault)
	}
	return &reportFixture{rig: r, worker: w, js: js}
}

// state renders the job's scheduling state, for before/after comparisons.
func (f *reportFixture) state() string {
	s := fmt.Sprintf("finished=%v err=%v mapsDone=%d recoveries=%d", f.js.settled && f.js.err == nil, f.js.err, f.js.mapsDone, f.js.recoveries)
	for _, ts := range append(append([]*taskState(nil), f.js.maps...), f.js.reduces...) {
		s += fmt.Sprintf(" {done=%v leased=%v holder=%d attempts=%d charged=%d}", ts.done, ts.lease != nil, ts.holder, ts.attempts, ts.charged())
	}
	return s
}

func (f *reportFixture) send(args ReportArgs) {
	args.Worker, args.JobID = f.worker, f.js.id
	f.report(args)
}

// TestReportRejectsNegativeIndexes sends reports naming task -1 and lost map
// -1. The master must drop them — not panic inside its RPC handler, which
// would kill the process — keep serving, and leave the job as it was.
func TestReportRejectsNegativeIndexes(t *testing.T) {
	f := newReportFixture(t)
	before := f.state()
	f.send(ReportArgs{Kind: "reduce", Task: -1, Err: "boom"})
	f.send(ReportArgs{Kind: "map", Task: -1, OK: true})
	f.send(ReportArgs{Kind: "reduce", Task: 0, Err: "fetch", LostMaps: []int{-1}})
	if err := f.heartbeat(f.worker, TransportCounts{}); err != nil {
		t.Fatalf("master stopped serving: %v", err)
	}
	if st := f.s.status(f.now); len(st.Workers) != 1 || !st.Workers[0].Alive {
		t.Errorf("status workers = %+v, want the one live worker", st.Workers)
	}
	if after := f.state(); after != before {
		t.Errorf("job state changed:\nbefore %s\nafter  %s", before, after)
	}
}

// TestDroppedReportsDoNotCount sends the malformed reports of
// TestReportRejectsNegativeIndexes and one naming a job the master never
// had. The master drops them all, so the worker's done and failed counts —
// which /metrics reports per worker — stay as they were.
func TestDroppedReportsDoNotCount(t *testing.T) {
	f := newReportFixture(t)
	counts := func() string {
		w := f.s.status(f.now).Workers[0]
		return fmt.Sprintf("done=%d failed=%d", w.TasksDone, w.TasksFailed)
	}
	before := counts()
	if before != "done=1 failed=0" {
		t.Fatalf("fixture counts %s, want the committed map only", before)
	}
	f.send(ReportArgs{Kind: "reduce", Task: -1, Err: "boom"})
	f.send(ReportArgs{Kind: "map", Task: -1, OK: true})
	f.send(ReportArgs{Kind: "reduce", Task: 0, Err: "fetch", LostMaps: []int{-1}})
	f.report(ReportArgs{Worker: f.worker, JobID: 999, Kind: "map", Task: 0, OK: true})
	if after := counts(); after != before {
		t.Errorf("dropped reports moved the worker's counts: %s → %s", before, after)
	}
}

// TestFetchFailuresChargeTheMap sends four fetch-failure reports from the
// reduce task against a holder that still looks alive. They are charged to
// the map, not to the reduce's attempt budget (4): the job keeps running,
// and the map output re-executes after the second report.
func TestFetchFailuresChargeTheMap(t *testing.T) {
	f := newReportFixture(t)
	attempt := 0
	for i := 0; i < 4; i++ {
		lease := f.lease(f.worker, "reduce")
		if i < 2 && lease == nil {
			t.Fatalf("report %d: the reduce was not leased", i)
		}
		if lease != nil {
			attempt = lease.Attempt
		}
		f.send(ReportArgs{Kind: "reduce", Task: 0, Attempt: attempt, Err: "map output unavailable", LostMaps: []int{0}})
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
	lease := f.lease(f.worker, "map")
	if lease == nil || lease.JobID != f.js.id || lease.Kind != "map" || lease.Task != 0 || lease.Attempt != 1 {
		t.Errorf("map lease = %+v, want the job's map task 0, attempt 1", lease)
	}
}

// TestRevivalCarriesTransportCounts declares the fixture's worker dead and
// revives it. A lease poll from the dead worker must neither revive it nor
// grant it work, and a re-registration that revives it must fold its
// transport counts in the same call: Status read right after the revival
// shows the worker alive with its counts, never alive without them.
func TestRevivalCarriesTransportCounts(t *testing.T) {
	f := newReportFixture(t)
	f.tick(time.Hour)
	if st := f.s.status(f.now); st.WorkersLost != 1 || st.Workers[0].Alive {
		t.Fatalf("after the tick: lost %d, workers %+v; want the worker dead", st.WorkersLost, st.Workers)
	}
	lease := f.lease(f.worker, "map")
	if st := f.s.status(f.now); lease != nil || st.Workers[0].Alive {
		t.Errorf("a lease poll from the dead worker granted %+v and left it alive=%v", lease, st.Workers[0].Alive)
	}
	counts := TransportCounts{RPCRetries: 3, Redials: 2, FetchRetries: 1}
	id := f.register(RegisterArgs{
		Addr: "127.0.0.1:1", MapSlots: 1, ReduceSlots: 1,
		PrevWorker: f.worker, PrevEpoch: f.s.epoch, TransportCounts: counts,
	})
	st := f.s.status(f.now)
	if id != f.worker || len(st.Workers) != 1 || !st.Workers[0].Alive {
		t.Fatalf("re-registration got ID %d, workers %+v; want worker %d revived", id, st.Workers, f.worker)
	}
	if st.RPCRetries != 3 || st.Redials != 2 || st.FetchTransientRetries != 1 || st.WorkerReregistrations != 1 {
		t.Errorf("status right after the revival: retries %d, redials %d, fetch retries %d, re-registrations %d; want 3, 2, 1, 1",
			st.RPCRetries, st.Redials, st.FetchTransientRetries, st.WorkerReregistrations)
	}
}
