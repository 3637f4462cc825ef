package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ntga/internal/mapreduce"
)

// t0 is when every rig starts; times in its logs are offsets from it.
var t0 = time.Unix(1_000_000, 0)

// rig drives a scheduling core the way the master's shell does — events in,
// actions applied in order, a winning report's write always succeeding — and
// checks the action stream as it goes: a lease opens with the task's next
// attempt number and closes once, and each output task is written once. It
// holds one job of at most simTasks tasks; its per-task records are indexed
// by the task's position in the job's maps, then reduces (pos).
type rig struct {
	s       *sched
	now     time.Time
	log     []action // every action, when logging
	logging bool
	open    [simTasks]*lease      // leases the actions opened and have not closed
	opens   [simTasks]int         // leases the actions ever opened
	writes  [simTasks]*ReportArgs // each output task's written report
	fault   string                // the first inconsistency in the action stream
}

func newRig(cfg MasterConfig) *rig {
	return &rig{s: &sched{cfg: cfg.withDefaults(), epoch: 1}, now: t0}
}

// pos is a task's index into the rig's per-task records.
func pos(js *jobState, ts *taskState) int {
	if ts.reduce {
		return len(js.maps) + ts.idx
	}
	return ts.idx
}

func (r *rig) faultf(format string, args ...any) {
	if r.fault == "" {
		r.fault = fmt.Sprintf(format, args...)
	}
}

func (r *rig) apply(acts []action) {
	for _, a := range acts {
		if r.logging {
			r.log = append(r.log, a)
		}
		var p int
		if a.task != nil {
			p = pos(a.job, a.task)
		}
		switch a.op {
		case actOpen:
			if r.open[p] != nil {
				r.faultf("%s: the task already has an open lease", actionString(a))
			}
			if a.lease.attempt != r.opens[p] {
				r.faultf("%s: want attempt %d", actionString(a), r.opens[p])
			}
			r.open[p] = a.lease
			r.opens[p]++
		case actClose:
			if r.open[p] != a.lease {
				r.faultf("%s: that lease is not open", actionString(a))
			}
			r.open[p] = nil
		case actWrite:
			if r.writes[p] != nil {
				r.faultf("%s: the task was already written", actionString(a))
			}
			r.writes[p] = a.rep
			r.apply(r.s.committed(a, nil))
		}
	}
}

// actionString renders an action for the rig's log.
func actionString(a action) string {
	switch a.op {
	case actSettle:
		return fmt.Sprintf("settle job %d: %v", a.job.id, a.err)
	case actWrite:
		return fmt.Sprintf("write job %d %s/%d from worker %d attempt %d %v", a.job.id, a.job.kind(a.task), a.task.idx, a.rep.Worker, a.rep.Attempt, a.parts)
	}
	op := map[actOp]string{actOpen: "open", actClose: "close"}[a.op]
	return fmt.Sprintf("%s job %d %s/%d on worker %d attempt %d until %v", op, a.job.id, a.job.kind(a.task), a.task.idx, a.lease.worker, a.lease.attempt, a.lease.deadline.Sub(t0))
}

func (r *rig) register(args RegisterArgs) int {
	return r.s.register(r.now, &args)
}

func (r *rig) heartbeat(worker int, counts TransportCounts) error {
	_, err := r.s.heartbeat(r.now, &HeartbeatArgs{Worker: worker, Epoch: r.s.epoch, TransportCounts: counts})
	return err
}

func (r *rig) lease(worker int, kind string) *TaskSpec {
	spec, acts, err := r.s.lease(r.now, &LeaseArgs{Worker: worker, Epoch: r.s.epoch, Kind: kind})
	if err != nil {
		r.faultf("lease from worker %d: %v", worker, err)
	}
	r.apply(acts)
	return spec
}

// report delivers an attempt's report quoting the master's epoch.
func (r *rig) report(args ReportArgs) {
	args.Epoch = r.s.epoch
	r.apply(r.s.report(&args))
}

// tick advances the clock by d and ticks the core.
func (r *rig) tick(d time.Duration) {
	r.now = r.now.Add(d)
	r.apply(r.s.tick(r.now))
}

// shuffleJob enqueues a shuffle job with two outputs over n splits and one
// reduce; sink, when non-nil, takes its main output.
func (r *rig) shuffleJob(n int, sink mapreduce.Sink) *jobState {
	job := &mapreduce.Job{Name: "j", Inputs: []string{"in"}, Output: "out", ExtraOutputs: []string{"extra"}, NumReducers: 1, Sink: sink}
	splits := make([]mapreduce.Split, n)
	for i := range splits {
		splits[i] = mapreduce.Split{Input: "in", Off: i, N: 1}
	}
	return r.s.addJob(r.s.addQuery(QuerySpec{Query: "q"}), job, splits, 8)
}

// TestSchedLateReportEndsOnlyItsLease replays the late report of an expired
// attempt: the reduce's attempt 0 outlives its lease, the same worker leases
// attempt 1, then attempt 0's failure arrives. The report names attempt 0,
// so attempt 1's lease, its span and its slot count stay as they were, and
// the task is not leased a third time; attempt 1's own report then commits.
func TestSchedLateReportEndsOnlyItsLease(t *testing.T) {
	r := newRig(MasterConfig{HeartbeatTimeout: time.Minute})
	w := r.register(RegisterArgs{Addr: "w1", MapSlots: 2, ReduceSlots: 2})
	js := r.shuffleJob(1, nil)
	m := r.lease(w, "map")
	r.report(ReportArgs{Worker: w, JobID: js.id, Kind: "map", Task: m.Task, Attempt: m.Attempt, OK: true})
	if a0 := r.lease(w, "reduce"); a0 == nil || a0.Attempt != 0 {
		t.Fatalf("first reduce lease = %+v, want attempt 0", a0)
	}
	r.tick(20 * time.Second) // past the 10 s lease, inside the heartbeat timeout
	if a1 := r.lease(w, "reduce"); a1 == nil || a1.Attempt != 1 {
		t.Fatalf("second reduce lease = %+v, want attempt 1", a1)
	}
	r.report(ReportArgs{Worker: w, JobID: js.id, Kind: "reduce", Task: 0, Attempt: 0, Err: "late"})
	rt := js.reduces[0]
	if rt.lease == nil || rt.lease.attempt != 1 {
		t.Errorf("after attempt 0's late report the reduce's lease is %+v, want attempt 1's", rt.lease)
	}
	if st := r.s.status(r.now); st.Workers[0].ReduceBusy != 1 {
		t.Errorf("ReduceBusy = %d with attempt 1's lease open, want 1", st.Workers[0].ReduceBusy)
	}
	if a2 := r.lease(w, "reduce"); a2 != nil {
		t.Errorf("the reduce was leased again (attempt %d) while attempt 1 runs", a2.Attempt)
	}
	r.report(ReportArgs{Worker: w, JobID: js.id, Kind: "reduce", Task: 0, Attempt: 1, OK: true, Outputs: []Records{{[]byte("row")}, nil}})
	if !js.settled || js.err != nil || r.writes[1] == nil || r.writes[1].Attempt != 1 {
		t.Errorf("attempt 1's report: settled=%v err=%v written=%+v; want the job settled by attempt 1's write", js.settled, js.err, r.writes[1])
	}
	if st := r.s.status(r.now); st.Workers[0].MapBusy != 0 || st.Workers[0].ReduceBusy != 0 || r.fault != "" {
		t.Errorf("busy %d/%d, action stream fault %q; want 0/0 and none", st.Workers[0].MapBusy, st.Workers[0].ReduceBusy, r.fault)
	}
}

// ---- exhaustive small-scope exploration ----

// simWorker is one worker process as the exploration models it.
type simWorker struct {
	id      int
	killed  bool         // stopped for good: never beats, polls or reports again
	cut     bool         // partitioned from the master until it beats or re-registers
	running []simAttempt // leased attempts it has not reported yet
}

// simAttempt is one attempt a worker runs, with the lease the master granted
// it. orphaned marks an attempt whose worker the master has since declared
// dead: its lease ended then.
type simAttempt struct {
	spec     *TaskSpec
	lease    *lease
	orphaned bool
}

// sim is the small scope: two workers, each running up to two attempts at
// once, and one shuffle job of two maps and one reduce whose main output
// goes to a sink. Every
// map report counts 10 map output records and the counter "c" once; every
// reduce report ships a unique sink record and three records of the extra
// output. A tick advances the clock by tickStep after every worker that is
// neither killed nor cut has heartbeated.
type sim struct {
	*rig
	js       *jobState
	w        [2]simWorker
	killed   bool // the one kill has happened
	cut      bool // the one partition has happened
	finished bool // the job settled (the exploration stops there)
}

const (
	tickStep         = 300 * time.Millisecond
	simHeartbeatTO   = 400 * time.Millisecond // dead after two silent ticks
	simLeaseTO       = 700 * time.Millisecond // expired after three ticks
	simMapRecords    = 10
	simExtraRecords  = 3
	simTasks         = 3
	simMaxWorkerLoad = 2
)

// simEvent is one step of the exploration: "poll" (lease a map, else a
// reduce), "finish" or "crash" (the worker reports running attempt i: a
// finish fails only on fetching from a killed holder), "tick", "kill",
// "cut", and the two ways a cut worker heals: "beat" (a heartbeat) and
// "rejoin" (a re-registration naming its ID and the master's epoch).
type simEvent struct {
	op   string
	w, i int
}

func (e simEvent) String() string {
	switch e.op {
	case "tick":
		return "tick"
	case "finish", "crash":
		return fmt.Sprintf("%s w%d#%d", e.op, e.w+1, e.i)
	}
	return fmt.Sprintf("%s w%d", e.op, e.w+1)
}

func newSim() *sim {
	s := &sim{rig: newRig(MasterConfig{HeartbeatTimeout: simHeartbeatTO, LeaseTimeout: simLeaseTO})}
	for i := range s.w {
		s.w[i].id = s.register(RegisterArgs{Addr: fmt.Sprintf("w%d", i+1), MapSlots: 1, ReduceSlots: 1})
	}
	s.js = s.shuffleJob(2, &recordingSink{})
	return s
}

// enabled lists the events possible in the current state, in a fixed order.
func (s *sim) enabled() []simEvent {
	var evs []simEvent
	for w, sw := range s.w {
		if sw.killed || sw.cut {
			continue
		}
		if len(sw.running) < simMaxWorkerLoad {
			evs = append(evs, simEvent{op: "poll", w: w})
		}
		for i := range sw.running {
			evs = append(evs, simEvent{op: "finish", w: w, i: i}, simEvent{op: "crash", w: w, i: i})
		}
	}
	evs = append(evs, simEvent{op: "tick"})
	for w, sw := range s.w {
		switch {
		case sw.cut && !sw.killed:
			evs = append(evs, simEvent{op: "beat", w: w}, simEvent{op: "rejoin", w: w})
		case !sw.killed && !s.cut:
			evs = append(evs, simEvent{op: "cut", w: w})
		}
		if !sw.killed && !s.killed {
			evs = append(evs, simEvent{op: "kill", w: w})
		}
	}
	return evs
}

// step applies one event and returns the first invariant it breaks ("" for
// none).
func (s *sim) step(e simEvent) string {
	sw := &s.w[e.w]
	switch e.op {
	case "poll":
		spec := s.lease(sw.id, "map")
		if spec == nil {
			spec = s.lease(sw.id, "reduce")
		}
		if spec != nil {
			ts := s.js.maps[spec.Task]
			if spec.Kind == "reduce" {
				ts = s.js.reduces[spec.Task]
			}
			sw.running = append(sw.running, simAttempt{spec: spec, lease: ts.lease})
		}
	case "finish", "crash":
		spec := sw.running[e.i].spec
		sw.running = slices.Delete(sw.running, e.i, e.i+1)
		if msg := s.deliver(sw, spec, e.op == "crash"); msg != "" {
			return msg
		}
	case "tick":
		s.now = s.now.Add(tickStep)
		for _, w := range s.w {
			if !w.killed && !w.cut {
				s.heartbeat(w.id, TransportCounts{})
			}
		}
		s.apply(s.s.tick(s.now))
		for i, w := range s.s.workers {
			for j := range s.w[i].running {
				s.w[i].running[j].orphaned = s.w[i].running[j].orphaned || !w.Alive
			}
		}
	case "kill":
		sw.killed, sw.running, s.killed = true, nil, true
	case "cut":
		sw.cut, s.cut = true, true
	case "beat":
		sw.cut = false
		if err := s.heartbeat(sw.id, TransportCounts{}); err != nil {
			return fmt.Sprintf("heartbeat after the partition: %v", err)
		}
	case "rejoin":
		sw.cut = false
		if id := s.register(RegisterArgs{Addr: fmt.Sprintf("w%d", e.w+1), MapSlots: 1, ReduceSlots: 1, PrevWorker: sw.id, PrevEpoch: s.s.epoch}); id != sw.id {
			return fmt.Sprintf("re-registration of worker %d assigned ID %d", sw.id, id)
		}
	}
	if !s.finished && s.js.settled {
		s.finished = true
		if msg := s.settled(); msg != "" {
			return msg
		}
	}
	return s.invariants()
}

// deliver reports one attempt of worker sw. A reduce attempt fetches every
// map output from the holder its spec names and fails, naming those maps,
// when a holder was killed. The attempt was charged when it was granted; a
// fetch failure that ends its lease must take that charge back.
func (s *sim) deliver(sw *simWorker, spec *TaskSpec, crash bool) string {
	rep := ReportArgs{Worker: sw.id, JobID: spec.JobID, Kind: spec.Kind, Task: spec.Task, Attempt: spec.Attempt, Counters: mapreduce.Counters{"c": 1}}
	switch {
	case crash:
		rep.Err = "crash"
	case spec.Kind == "map":
		rep.OK, rep.Records, rep.Bytes = true, simMapRecords, 100
	default:
		for _, loc := range spec.Maps {
			if s.w[loc.Worker-1].killed {
				rep.LostMaps = append(rep.LostMaps, loc.Task)
			}
		}
		if rep.LostMaps != nil {
			rep.Err = "map output unavailable"
			break
		}
		extra := make(Records, simExtraRecords)
		for i := range extra {
			extra[i] = []byte("x")
		}
		rep.OK, rep.Groups = true, 1
		rep.Outputs = []Records{{[]byte(fmt.Sprintf("row from worker %d attempt %d", sw.id, spec.Attempt))}, extra}
	}
	ts := s.js.reduces[0]
	if spec.Kind == "map" {
		ts = s.js.maps[spec.Task]
	}
	l := ts.lease
	named := l != nil && l.worker == sw.id && l.attempt == spec.Attempt
	before := ts.charged()
	s.report(rep)
	if rep.LostMaps != nil && named && ts.charged() != before-1 {
		return fmt.Sprintf("a fetch failure charged the reduce: %d → %d charged attempts, want %d", before, ts.charged(), before-1)
	}
	return ""
}

// settled checks a settled job: on success every task committed once, the
// sink took each output task's written main output once and in task order,
// and the folded counts hold one winning report per task.
func (s *sim) settled() string {
	if s.js.err != nil {
		return "" // a spent attempt budget fails the job legitimately
	}
	var jm mapreduce.JobMetrics
	sink := &recordingSink{}
	if err := feedSink(sink, s.js.fold(&jm)); err != nil {
		return fmt.Sprintf("feeding the sink: %v", err)
	}
	for i, ts := range slices.Concat(s.js.maps, s.js.reduces) {
		if !ts.won {
			return fmt.Sprintf("task %d never committed", i)
		}
	}
	rt := s.js.reduces[0]
	if w := s.writes[pos(s.js, rt)]; w == nil || len(sink.commits) != 1 || sink.commits[0].task != 0 || !slices.EqualFunc(sink.commits[0].recs, w.Outputs[0], func(a []byte, b []byte) bool { return string(a) == string(b) }) {
		return fmt.Sprintf("sink commits %q, want the written report's main output once", sink.commits)
	}
	if jm.Counters["c"] != simTasks || jm.MapOutputRecords != 2*simMapRecords || jm.ReduceOutputRecords != simExtraRecords {
		return fmt.Sprintf("folded counter %d, map output %d, reduce output %d; want %d, %d, %d",
			jm.Counters["c"], jm.MapOutputRecords, jm.ReduceOutputRecords, simTasks, 2*simMapRecords, simExtraRecords)
	}
	return ""
}

// invariants checks the state after every step: the action stream's open
// leases are the core's; no lease outlives its worker or its job; each
// worker's busy counts equal its open leases; and an attempt still running
// keeps its lease until it reports, the lease expires, its worker is
// declared dead or its job settles — another attempt's report never ends
// it.
func (s *sim) invariants() string {
	if s.fault != "" {
		return s.fault
	}
	for _, sw := range s.w {
		for _, r := range sw.running {
			ts := s.js.maps[r.spec.Task]
			if r.spec.Kind == "reduce" {
				ts = s.js.reduces[r.spec.Task]
			}
			if !r.orphaned && !s.js.settled && !s.now.After(r.lease.deadline) && ts.lease != r.lease {
				return fmt.Sprintf("%s/%d attempt %d still runs on worker %d, but its lease ended (the task's lease is %+v)", r.spec.Kind, r.spec.Task, r.spec.Attempt, sw.id, ts.lease)
			}
		}
	}
	var busy [2][2]int
	for _, ts := range slices.Concat(s.js.maps, s.js.reduces) {
		if s.open[pos(s.js, ts)] != ts.lease {
			return fmt.Sprintf("%s/%d: core lease %+v, action stream %+v", s.js.kind(ts), ts.idx, ts.lease, s.open[pos(s.js, ts)])
		}
		if ts.lease == nil {
			continue
		}
		if w := s.s.workers[ts.lease.worker-1]; !w.Alive || s.js.settled {
			return fmt.Sprintf("%s/%d: lease on worker %d outlives it (alive %v) or its job (settled %v)", s.js.kind(ts), ts.idx, w.ID, w.Alive, s.js.settled)
		}
		if ts.reduce {
			busy[ts.lease.worker-1][1]++
		} else {
			busy[ts.lease.worker-1][0]++
		}
	}
	for i, w := range s.s.workers {
		if w.MapBusy != busy[i][0] || w.ReduceBusy != busy[i][1] {
			return fmt.Sprintf("worker %d busy %d/%d, open leases %d/%d", w.ID, w.MapBusy, w.ReduceBusy, busy[i][0], busy[i][1])
		}
	}
	return ""
}

// fingerprint hashes (FNV-1a, 64 bits) an encoding of everything that
// decides the state's future and its checks, so two event orders reaching
// the same fingerprint explore alike.
func (s *sim) fingerprint(b []byte) uint64 {
	b = b[:0]
	num := func(vs ...int64) {
		for _, v := range vs {
			b = strconv.AppendInt(b, v, 10)
			b = append(b, ' ')
		}
	}
	flag := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	// The core only compares times with now, so times relative to now merge
	// states that differ only in when they happened.
	ms := func(t time.Time) int64 { return t.Sub(s.now).Milliseconds() }
	num(flag(s.killed), flag(s.cut))
	for i, w := range s.s.workers {
		num(flag(w.Alive), ms(w.lastBeat), int64(w.MapBusy), int64(w.ReduceBusy), flag(s.w[i].killed), flag(s.w[i].cut))
		for _, r := range s.w[i].running {
			b = append(b, r.spec.Kind...)
			num(int64(r.spec.Task), int64(r.spec.Attempt), ms(r.lease.deadline), flag(r.orphaned))
		}
		b = append(b, '|')
	}
	num(flag(s.js.settled), int64(s.js.mapsDone))
	for _, ts := range slices.Concat(s.js.maps, s.js.reduces) {
		num(flag(ts.done), flag(ts.won), int64(ts.holder), int64(ts.attempts), int64(ts.fetchFailed), int64(ts.fetchFailures), ts.records)
		if l := ts.lease; l != nil {
			num(int64(l.worker), int64(l.attempt), ms(l.deadline))
		}
		if w := s.writes[pos(s.js, ts)]; w != nil {
			num(int64(w.Worker), int64(w.Attempt))
		}
		b = append(b, '|')
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestSchedExhaustiveSmallScope walks every order of the small scope's
// events up to simDepth steps — one kill and one partition at most —
// visiting each distinct state once at the shallowest depth it is reached,
// and checks the invariants after every step.
func TestSchedExhaustiveSmallScope(t *testing.T) {
	const simDepth = 11
	seen := make(map[uint64]int)
	buf := make([]byte, 0, 256)
	var states, settledOK, settledErr int
	var walk func(s *sim, path []simEvent) bool
	walk = func(s *sim, path []simEvent) bool {
		for _, e := range s.enabled() {
			child := s.clone()
			next := append(slices.Clone(path), e)
			if msg := child.step(e); msg != "" {
				t.Errorf("after %v: %s", next, msg)
				return false
			}
			fp := child.fingerprint(buf)
			if d, ok := seen[fp]; ok && d <= len(next) {
				continue
			}
			seen[fp] = len(next)
			states++
			if child.finished {
				if child.js.err == nil {
					settledOK++
				} else {
					settledErr++
				}
				continue
			}
			if len(next) < simDepth && !walk(child, next) {
				return false
			}
		}
		return true
	}
	walk(newSim(), nil)
	t.Logf("%d states, %d settled OK, %d failed", states, settledOK, settledErr)
	if settledOK == 0 {
		t.Errorf("no explored order completed the job")
	}
}

// clone copies the state deep enough that stepping the copy leaves s as it
// was. Leases and task specs never change once made, so both share them.
func (s *sim) clone() *sim {
	c, r, sc := *s, *s.rig, *s.s
	c.rig, r.s = &r, &sc
	sc.workers = nil
	for _, w := range s.s.workers {
		wc := *w
		sc.workers = append(sc.workers, &wc)
	}
	q := *s.js.q // its bucketHolder stays empty: the job is not bucket-aligned
	js := *s.js
	js.q, js.maps, js.reduces = &q, nil, nil
	sc.queries, sc.jobs, c.js = []*queryState{&q}, []*jobState{&js}, &js
	tasks := make([]taskState, 0, simTasks)
	for _, ts := range s.js.maps {
		tasks = append(tasks, *ts)
		js.maps = append(js.maps, &tasks[len(tasks)-1])
	}
	for _, ts := range s.js.reduces {
		tasks = append(tasks, *ts)
		js.reduces = append(js.reduces, &tasks[len(tasks)-1])
	}
	for i := range c.w {
		c.w[i].running = slices.Clone(s.w[i].running)
	}
	return &c
}

// TestSchedReplayIsDeterministic replays one recorded sequence — a
// partition healed by re-registration, an attempt expiring under a live
// worker and reporting late, a kill that loses a committed map output — twice
// and requires identical action logs and status.
func TestSchedReplayIsDeterministic(t *testing.T) {
	var script []simEvent
	for _, e := range strings.Fields("poll:0 poll:1 finish:0:0 cut:1 tick tick rejoin:1 poll:0 tick tick tick poll:0 finish:0:0 finish:0:0 kill:0 tick tick poll:1 finish:1:0 poll:1 finish:1:0 poll:1 finish:1:0") {
		var ev simEvent
		f := strings.Split(e, ":")
		ev.op = f[0]
		if len(f) > 1 {
			fmt.Sscan(f[1], &ev.w)
		}
		if len(f) > 2 {
			fmt.Sscan(f[2], &ev.i)
		}
		script = append(script, ev)
	}
	run := func() (*sim, string) {
		s := newSim()
		s.logging = true
		for _, e := range script {
			if msg := s.step(e); msg != "" {
				t.Fatalf("%v: %s", e, msg)
			}
		}
		var log strings.Builder
		for _, a := range s.log {
			fmt.Fprintln(&log, actionString(a))
		}
		return s, log.String() + fmt.Sprintf("%+v", s.s.status(s.now))
	}
	s1, log1 := run()
	_, log2 := run()
	if log1 != log2 {
		t.Errorf("the same events gave different action logs:\n%s\n----\n%s", log1, log2)
	}
	if !s1.js.settled || s1.js.err != nil || s1.js.recoveries == 0 || s1.s.counts.WorkersLost != 2 {
		t.Errorf("the script should finish the job after losing a map output and two workers: settled %v err %v recoveries %d lost %d\n%s",
			s1.js.settled, s1.js.err, s1.js.recoveries, s1.s.counts.WorkersLost, log1)
	}
}

// recordingSink keeps what each committed attempt collected.
type recordingSink struct {
	commits []sinkCommit
}

type sinkCommit struct {
	task int
	recs [][]byte
}

func (r *recordingSink) Attempt() mapreduce.SinkAttempt { return &recordingAttempt{sink: r} }

type recordingAttempt struct {
	sink *recordingSink
	recs [][]byte
}

func (a *recordingAttempt) Collect(rec []byte) error {
	a.recs = append(a.recs, slices.Clone(rec))
	return nil
}

func (a *recordingAttempt) Commit(task int) {
	a.sink.commits = append(a.sink.commits, sinkCommit{task, a.recs})
}
