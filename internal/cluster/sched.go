package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"ntga/internal/mapreduce"
)

// sched is the master's scheduling core: the fleet, the in-flight queries
// and their jobs, each job's tasks with their attempt budgets and leases,
// the bucket holders and the map-output-loss rules. Every event — register,
// heartbeat, lease, report, tick — is a method that takes the time it
// happened and returns the actions the shell must carry out, in order. The
// core reads no clock, takes no lock and does no I/O, and it walks workers
// in ID order and jobs in registration order, so one sequence of events
// always yields one sequence of actions.
type sched struct {
	cfg   MasterConfig // the timeouts and the attempt budget
	epoch int64        // this boot of the master, which workers quote

	workers []*workerState // workers[i].ID == i+1
	queries []*queryState  // registration order
	jobs    []*jobState    // registration order: earlier jobs lease first

	querySeq, jobSeq int64
	// counts holds the Status counters the core keeps itself.
	counts StatusReply
}

// actOp names what an action asks of the shell.
type actOp int

const (
	// actOpen: a lease was granted; open its task span.
	actOpen actOp = iota
	// actClose: a lease ended; finish its span.
	actClose
	// actWrite: a report won its task; write parts as the job's part files,
	// then hand the outcome back (committed).
	actWrite
	// actSettle: the job finished (err == nil) or failed; wake its runJob.
	actSettle
)

// action is one thing the shell must do after an event.
type action struct {
	op    actOp
	job   *jobState
	task  *taskState   // open, close, write
	lease *lease       // open, close
	rep   *ReportArgs  // write: the winning report
	parts []partOutput // write
	err   error        // settle
}

// partOutput is one part file a winning report commits: the records it
// shipped for output base (an index into Job.OutputBases).
type partOutput struct {
	base int
	name string
	recs Records
}

// workerState is the master's view of one registered worker: its status
// row, whose MapBusy/ReduceBusy count its open leases of each slot kind and
// move only when a lease opens or ends.
type workerState struct {
	WorkerStatus
	lastBeat time.Time
	// beats counts the heartbeats this boot has taken from the worker; a
	// lease records the count it was granted at (reclaim).
	beats int64
	// counts are the transport-recovery totals shipped in heartbeats and
	// registrations, max-merged (foldCounts).
	counts TransportCounts
}

// foldCounts max-merges a worker's shipped transport counts: they are
// cumulative on the worker, and its heartbeats can race its registration.
func (w *workerState) foldCounts(c TransportCounts) {
	w.counts.RPCRetries = max(w.counts.RPCRetries, c.RPCRetries)
	w.counts.Redials = max(w.counts.Redials, c.Redials)
	w.counts.FetchRetries = max(w.counts.FetchRetries, c.FetchRetries)
}

// queryState tracks one in-flight query: its rebuild spec (shipped inside
// every TaskSpec).
type queryState struct {
	id   string
	spec QuerySpec
	// bucketHolder remembers, per layout bucket, the worker that last
	// completed a whole-file task over it in this query — later bucket
	// jobs of the same query lease those buckets back to it (affinity).
	bucketHolder map[int]int
}

// lease is one granted task attempt. It is named by the worker, the master
// boot the worker quoted (epoch) and the attempt number: a report ends it
// only when it names all three. beat is the worker's heartbeat count when
// it was granted.
type lease struct {
	worker   int
	epoch    int64
	attempt  int
	deadline time.Time
	beat     int64
}

// taskState is one task of one job instance.
type taskState struct {
	idx      int // index within its phase
	reduce   bool
	done     bool
	lease    *lease // the open lease, nil when none
	holder   int    // worker holding committed map output (-1 = none)
	attempts int
	dur      time.Duration
	stats    mapreduce.ReduceStats // what a committed reduce task consumed
	sunk     [][]byte              // a committed task's main output, for the job's sink
	// What the winning report counted: a map task's map output, or the
	// records and bytes a reduce or map-only task committed to the DFS; and
	// the attempt's counters. A re-executed map task's next winner replaces
	// them; fold adds the won tasks' when the job ends — a map's too when its
	// output was lost after the reduces had fetched it.
	won            bool
	records, bytes int64
	counters       mapreduce.Counters
	// fetchFailed counts this reduce task's attempts that failed only
	// fetching map output; they are charged to the maps, not to the task's
	// attempt budget (charged). fetchFailures counts the fetch-failure
	// reports naming this map task's committed output. reclaimed counts the
	// attempts whose lease a heartbeat reclaimed, also uncharged.
	fetchFailed, fetchFailures, reclaimed int
}

// charged is how many of the task's attempts count against its budget.
func (ts *taskState) charged() int { return ts.attempts - ts.fetchFailed - ts.reclaimed }

// pending reports whether the task waits for a lease.
func (ts *taskState) pending() bool { return !ts.done && ts.lease == nil }

// fetchFailureLimit is how many fetch-failure reports may name one committed
// map output before it re-executes although its holder still looks alive —
// Hadoop's fetch-failure notifications. A reduce that fetches from a killed
// holder before the heartbeat timeout declares it dead takes the first
// report as transient; the second re-runs the map.
const fetchFailureLimit = 2

// jobState is one job instance being scheduled across the workers. It is
// the distributed counterpart of the local engine's per-job run state.
type jobState struct {
	q        *queryState
	id       int64
	job      *mapreduce.Job
	splits   []mapreduce.Split
	maps     []*taskState
	reduces  []*taskState
	mapsDone int

	settled bool
	err     error

	retries, recoveries int64
}

// kind is the task's TaskSpec kind: "map", "maponly" or "reduce".
func (js *jobState) kind(ts *taskState) string {
	switch {
	case ts.reduce:
		return "reduce"
	case js.job.ShuffleFree():
		return "maponly"
	}
	return "map"
}

// outTasks are the tasks whose reports commit the job's outputs.
func (js *jobState) outTasks() []*taskState {
	if js.job.ShuffleFree() {
		return js.maps
	}
	return js.reduces
}

// next picks the task a lease of the kind takes from the job for worker w,
// or nil (always nil once the job has settled). Map-kind slots run both "map" and "maponly" tasks: on
// bucket-aligned jobs the pending buckets w already processed earlier in
// the query come first (affine). A reduce is leasable only once every map
// output of its job is committed.
func (js *jobState) next(kind string, w int) (ts *taskState, affine bool) {
	tasks := js.maps
	switch {
	case js.settled:
		return nil, false
	case kind == "map" && js.job.WholeFileSplits:
		for i, ts := range js.maps {
			if ts.pending() && js.q.bucketHolder[i] == w {
				return ts, true
			}
		}
	case kind == "reduce":
		if js.mapsDone != len(js.maps) {
			return nil, false
		}
		tasks = js.reduces
	case kind != "map":
		return nil, false
	}
	for _, ts := range tasks {
		if ts.pending() {
			return ts, false
		}
	}
	return nil, false
}

// loseOutput re-queues a committed map output no reduce can fetch any more:
// the map re-executes before any remaining reduce runs (Hadoop's map-output
// re-execution).
func (js *jobState) loseOutput(ts *taskState) {
	ts.done = false
	ts.holder = -1
	ts.fetchFailures = 0
	js.mapsDone--
	js.recoveries++
}

// fold adds the job's done tasks to jm, each from its winning report alone,
// and returns what a sink is fed: each output task's main output, in task
// order (nil unless the job succeeded and has a sink).
func (js *jobState) fold(jm *mapreduce.JobMetrics) [][][]byte {
	jm.TaskRetries = js.retries
	jm.MapOutputRecoveries = js.recoveries
	var mapDurs, reduceDurs []time.Duration
	for _, ts := range js.maps {
		if ts.won {
			mapDurs = append(mapDurs, ts.dur)
			jm.Counters.Add(ts.counters)
			if !js.job.ShuffleFree() {
				jm.MapOutputRecords += ts.records
				jm.MapOutputBytes += ts.bytes
			}
		}
	}
	reduces := make([]mapreduce.ReduceStats, len(js.reduces))
	for p, ts := range js.reduces {
		if ts.done {
			reduceDurs = append(reduceDurs, ts.dur)
			reduces[p] = ts.stats
			jm.Counters.Add(ts.counters)
		}
	}
	out := js.outTasks()
	for _, ts := range out {
		if ts.done {
			jm.ReduceOutputRecords += ts.records
			jm.ReduceOutputBytes += ts.bytes
		}
	}
	jm.FoldTaskStats(mapDurs, reduceDurs, reduces)
	if js.err != nil || js.job.Sink == nil {
		return nil
	}
	sunk := make([][][]byte, len(out))
	for i, ts := range out {
		sunk[i] = ts.sunk
	}
	return sunk
}

// worker resolves a worker's ID within this master's boot: an ID quoted
// from another epoch names a record of a master that no longer exists (a
// restarted master numbers its workers from 1 again), so it is as unknown
// as a missing one, and the worker re-registers.
func (s *sched) worker(id int, epoch int64) (*workerState, error) {
	if epoch == s.epoch && id >= 1 && id <= len(s.workers) {
		return s.workers[id-1], nil
	}
	return nil, fmt.Errorf("cluster: unknown worker %d", id)
}

// register admits a worker and returns its ID. A PrevWorker this boot
// knows — a returning worker after a healed partition — revives its record
// in place: same ID, so slots are not double-counted and its committed map
// outputs stay addressed; leases it still holds (no tick declared
// it dead) settle normally. Any other worker — or a PrevWorker of another
// boot — gets a fresh ID.
func (s *sched) register(now time.Time, a *RegisterArgs) int {
	var w *workerState
	if a.PrevWorker != 0 {
		s.counts.WorkerReregistrations++
		w, _ = s.worker(a.PrevWorker, a.PrevEpoch)
	}
	if w == nil {
		w = &workerState{WorkerStatus: WorkerStatus{ID: len(s.workers) + 1}}
		s.workers = append(s.workers, w)
	}
	w.Addr, w.MapSlots, w.ReduceSlots = a.Addr, a.MapSlots, a.ReduceSlots
	w.Alive, w.lastBeat = true, now
	w.foldCounts(a.TransportCounts)
	return w.ID
}

// heartbeat records a liveness ping, reclaims the worker's leases lost on
// the wire and returns the live query IDs, with the reclaims' actions. Besides
// register it is the only event that revives a worker declared dead (its
// map outputs were already re-queued, so it simply becomes a lease target
// again), and both carry the transport counts: a revived worker never reads
// alive without them. wake reports a revival or a reclaim: either can make
// a task leasable.
func (s *sched) heartbeat(now time.Time, a *HeartbeatArgs) (live []string, acts []action, wake bool, err error) {
	w, err := s.worker(a.Worker, a.Epoch)
	if err != nil {
		return nil, nil, false, err
	}
	wake = !w.Alive
	w.Alive, w.lastBeat = true, now
	w.foldCounts(a.TransportCounts)
	acts = s.reclaim(w, a.Held)
	w.beats++
	for _, q := range s.queries {
		live = append(live, q.id)
	}
	return live, acts, wake || len(acts) > 0, nil
}

// reclaim ends every open lease of the worker that its heartbeat does not
// name (held), if it was granted before the worker's previous heartbeat:
// the worker held the attempt then, or never got the grant, and holds it no
// more — the grant's reply or the attempt's report was lost on the wire. The
// task goes back to the queue and the attempt is not charged, since it did
// not fail. A grant whose reply is slower than a heartbeat interval is
// reclaimed wrongly; that costs a duplicate attempt, as the first OK report
// wins the task.
func (s *sched) reclaim(w *workerState, held []HeldAttempt) []action {
	var acts []action
	for _, js := range s.jobs {
		for _, tasks := range [2][]*taskState{js.maps, js.reduces} {
			for _, ts := range tasks {
				l := ts.lease
				if l == nil || l.worker != w.ID || l.beat >= w.beats || slices.ContainsFunc(held, func(h HeldAttempt) bool {
					return h.JobID == js.id && (h.Kind == "reduce") == ts.reduce && h.Task == ts.idx && h.Attempt == l.attempt
				}) {
					continue
				}
				ts.reclaimed++
				s.counts.LeasesReclaimed++
				acts = s.release(js, ts, acts)
			}
		}
	}
	return acts
}

// lease grants the worker the first task of the kind any unsettled job
// offers (jobs in registration order). A worker declared dead gets nothing
// until a heartbeat or registration revives it.
func (s *sched) lease(now time.Time, a *LeaseArgs) (*TaskSpec, []action, error) {
	w, err := s.worker(a.Worker, a.Epoch)
	if err != nil || !w.Alive {
		return nil, nil, err
	}
	var js *jobState
	var ts *taskState
	var affine bool
	for _, js = range s.jobs {
		if ts, affine = js.next(a.Kind, w.ID); ts != nil {
			break
		}
	}
	if ts == nil {
		return nil, nil, nil
	}
	// The attempt number is drawn here (a re-queued task's next grant counts
	// as a retry), and the deadline starts.
	spec := &TaskSpec{
		QueryID:     js.q.id,
		Spec:        js.q.spec,
		JobID:       js.id,
		JobName:     js.job.Name,
		Kind:        js.kind(ts),
		Task:        ts.idx,
		Attempt:     ts.attempts,
		NumReducers: len(js.reduces),
		JobInputs:   js.job.Inputs,
	}
	if ts.reduce {
		spec.Partition = ts.idx
		spec.Maps = make([]MapLoc, len(js.maps))
		for i, mt := range js.maps {
			spec.Maps[i] = MapLoc{Task: i, Worker: mt.holder, Addr: s.workers[mt.holder-1].Addr}
		}
		w.ReduceBusy++
	} else {
		spec.Split = js.splits[ts.idx]
		if ts.idx < len(js.job.TaskSideInputs) {
			spec.SideInput = js.job.TaskSideInputs[ts.idx]
		}
		w.MapBusy++
	}
	if ts.attempts > 0 {
		js.retries++
	}
	ts.attempts++
	ts.lease = &lease{worker: w.ID, epoch: s.epoch, attempt: spec.Attempt, deadline: now.Add(s.cfg.LeaseTimeout), beat: w.beats}
	s.counts.TasksDispatched++
	if affine {
		s.counts.AffineLeases++
	}
	return spec, []action{{op: actOpen, job: js, task: ts, lease: ts.lease}}, nil
}

// release ends the task's open lease: the holder's slot count drops and the
// shell finishes the lease's span. It is the one way a lease ends.
func (s *sched) release(js *jobState, ts *taskState, acts []action) []action {
	l := ts.lease
	ts.lease = nil
	w := s.workers[l.worker-1]
	if ts.reduce {
		w.ReduceBusy--
	} else {
		w.MapBusy--
	}
	return append(acts, action{op: actClose, job: js, task: ts, lease: l})
}

// charge fails the job once an unfinished task's attempt budget is spent;
// cause says what ended its last attempt.
func (s *sched) charge(js *jobState, ts *taskState, cause string, acts []action) []action {
	if ts.done || ts.charged() < s.cfg.MaxTaskAttempts {
		return acts
	}
	return s.settle(js, fmt.Errorf("cluster: %s task %d failed after %d attempts: %s", js.kind(ts), ts.idx, ts.charged(), cause), acts)
}

// settle finishes the job once, failed when err is non-nil: every lease
// still open on it ends, and the shell wakes the job's runJob. Workers still
// running its tasks report into the void.
func (s *sched) settle(js *jobState, err error, acts []action) []action {
	if js.settled {
		return acts
	}
	js.settled, js.err = true, err
	for _, tasks := range [2][]*taskState{js.maps, js.reduces} {
		for _, ts := range tasks {
			if ts.lease != nil {
				acts = s.release(js, ts, acts)
			}
		}
	}
	return append(acts, action{op: actSettle, job: js, err: err})
}

// tick declares workers silent for longer than the heartbeat timeout dead,
// returning their work to the queue, then expires overdue leases. wake
// reports either: both can make a task leasable.
func (s *sched) tick(now time.Time) (acts []action, wake bool) {
	for _, w := range s.workers {
		if w.Alive && now.Sub(w.lastBeat) > s.cfg.HeartbeatTimeout {
			w.Alive = false
			s.counts.WorkersLost++
			acts, wake = s.lose(w, acts), true
		}
	}
	for _, js := range s.jobs {
		for _, tasks := range [2][]*taskState{js.maps, js.reduces} {
			for _, ts := range tasks {
				if ts.lease != nil && now.After(ts.lease.deadline) {
					s.counts.LeasesExpired++
					acts, wake = s.charge(js, ts, "lease expired", s.release(js, ts, acts)), true
				}
			}
		}
	}
	return acts, wake
}

// lose returns a dead worker's work to the queue: its open leases, and —
// for unsettled shuffle jobs — the committed map outputs only it can serve.
func (s *sched) lose(w *workerState, acts []action) []action {
	cause := fmt.Sprintf("worker %d lost", w.ID)
	for _, js := range s.jobs {
		if js.settled {
			continue
		}
		for _, tasks := range [2][]*taskState{js.maps, js.reduces} {
			for _, ts := range tasks {
				if ts.lease != nil && ts.lease.worker == w.ID {
					acts = s.charge(js, ts, cause, s.release(js, ts, acts))
				}
				if ts.done && ts.holder == w.ID && js.kind(ts) == "map" {
					js.loseOutput(ts)
				}
			}
		}
	}
	return acts
}

// report applies a task attempt's outcome. It ends the task's open lease
// only when the report names it (worker, epoch and attempt), so a late
// report from an expired attempt leaves its successor's lease alone. The
// first OK report of a task wins it, whichever attempt sent it —
// deterministic outputs make later ones redundant: a shuffle map's output
// stays on its worker and only its counts travel; a reduce or map-only
// task's shipped output must be written first (actWrite, then committed).
// A live worker's done/failed counts move only for a report the core
// applies: one naming a task of an unsettled job, and lost maps, if any,
// that are maps of that job.
func (s *sched) report(a *ReportArgs) []action {
	w, err := s.worker(a.Worker, a.Epoch)
	if err != nil {
		return nil // leased by another boot of the master: its job IDs mean nothing here
	}
	i := slices.IndexFunc(s.jobs, func(js *jobState) bool { return js.id == a.JobID })
	if i < 0 || s.jobs[i].settled {
		return nil // job settled or gone; late report
	}
	js, tasks := s.jobs[i], s.jobs[i].maps
	if a.Kind == "reduce" {
		tasks = js.reduces
	}
	// The indexes come from the worker: a report naming no task of this job,
	// or a lost map that is none, is dropped whole.
	if a.Task < 0 || a.Task >= len(tasks) || slices.ContainsFunc(a.LostMaps, func(t int) bool { return t < 0 || t >= len(js.maps) }) {
		return nil
	}
	if w.Alive {
		if a.OK {
			w.TasksDone++
		} else {
			w.TasksFailed++
		}
	}
	ts := tasks[a.Task]
	var acts []action
	l := ts.lease
	named := l != nil && l.worker == a.Worker && l.epoch == a.Epoch && l.attempt == a.Attempt
	if named {
		acts = s.release(js, ts, acts)
	}
	switch {
	case ts.done:
		return acts
	case !a.OK:
		return s.failed(js, ts, a, named, acts)
	case js.kind(ts) == "map":
		js.win(ts, a)
		ts.records, ts.bytes = a.Records, a.Bytes
		js.mapsDone++
		return acts
	}
	bases := js.job.OutputBases()
	if len(a.Outputs) != len(bases) {
		return s.settle(js, fmt.Errorf("cluster: %s task %d shipped %d outputs, job %s has %d", a.Kind, a.Task, len(a.Outputs), js.job.Name, len(bases)), acts)
	}
	write := action{op: actWrite, job: js, task: ts, rep: a}
	for b, base := range bases {
		// An output the task wrote nothing to gets no part file, as a local
		// attempt creates none.
		if b == 0 && js.job.Sunk() || len(a.Outputs[b]) == 0 {
			continue
		}
		write.parts = append(write.parts, partOutput{b, mapreduce.PartName(base, a.Task), a.Outputs[b]})
	}
	return append(acts, write)
}

// win records the winning report on its task.
func (js *jobState) win(ts *taskState, a *ReportArgs) {
	ts.done, ts.won = true, true
	ts.holder = a.Worker
	ts.dur = a.Duration
	ts.counters = a.Counters
}

// committed finishes a winning report once the shell has written its part
// files (err is the write's failure, which fails the job): the task is done
// and counts what it wrote, a sink's share is kept on it, and the job
// settles when its last output task commits.
func (s *sched) committed(w action, err error) []action {
	js, ts, a := w.job, w.task, w.rep
	if err != nil {
		return s.settle(js, err, nil)
	}
	js.win(ts, a)
	ts.stats = mapreduce.ReduceStats{Groups: a.Groups, InPairs: a.InPairs, InBytes: a.InBytes}
	if js.job.Sink != nil {
		ts.sunk = a.Outputs[0]
	}
	for _, p := range w.parts {
		for _, rec := range p.recs {
			ts.records++
			ts.bytes += int64(len(rec))
		}
	}
	if !ts.reduce {
		js.mapsDone++
		if js.job.WholeFileSplits {
			js.q.bucketHolder[ts.idx] = a.Worker
		}
	}
	for _, ts := range js.outTasks() {
		if !ts.done {
			return nil
		}
	}
	return s.settle(js, nil, nil)
}

// failed handles a failed attempt; named says the report ended the task's
// lease. A reduce attempt that failed only fetching map output (LostMaps)
// is charged to the maps it names, not to its own budget: each named
// committed output re-executes once its holder is dead or fetchFailureLimit
// reports have named it, and the reduce waits for it. Any other failure —
// or a report whose lease had already ended — leaves the attempt charged.
func (s *sched) failed(js *jobState, ts *taskState, a *ReportArgs, named bool, acts []action) []action {
	for _, t := range a.LostMaps {
		mt := js.maps[t]
		if !mt.done {
			continue
		}
		mt.fetchFailures++
		if s.workers[mt.holder-1].Alive && mt.fetchFailures < fetchFailureLimit {
			continue // holder looks fine; treat the first failure as transient
		}
		js.loseOutput(mt)
	}
	if len(a.LostMaps) > 0 && named {
		ts.fetchFailed++
	}
	return s.charge(js, ts, a.Err, acts)
}

// addQuery registers a query for the workers' plan rebuilds.
func (s *sched) addQuery(spec QuerySpec) *queryState {
	s.querySeq++
	q := &queryState{id: fmt.Sprintf("q-%06d", s.querySeq), spec: spec, bucketHolder: make(map[int]int)}
	s.queries = append(s.queries, q)
	return q
}

func (s *sched) dropQuery(q *queryState) {
	s.queries = slices.DeleteFunc(s.queries, func(x *queryState) bool { return x == q })
}

// addJob enqueues one job of the query: a map task per split and, unless
// the job is shuffle-free, its reduce tasks (job.NumReducers, or
// defaultReducers when that is 0).
func (s *sched) addJob(q *queryState, job *mapreduce.Job, splits []mapreduce.Split, defaultReducers int) *jobState {
	s.jobSeq++
	js := &jobState{q: q, id: s.jobSeq, job: job, splits: splits}
	for i := range splits {
		js.maps = append(js.maps, &taskState{idx: i, holder: -1})
	}
	if !job.ShuffleFree() {
		for p := range cmp.Or(job.NumReducers, defaultReducers) {
			js.reduces = append(js.reduces, &taskState{idx: p, reduce: true, holder: -1})
		}
	}
	s.jobs = append(s.jobs, js)
	return js
}

// dropJob unlists a settled job.
func (s *sched) dropJob(js *jobState) {
	s.jobs = slices.DeleteFunc(s.jobs, func(x *jobState) bool { return x == js })
}

// status snapshots the fleet and the scheduler's counts.
func (s *sched) status(now time.Time) StatusReply {
	st := s.counts
	st.ActiveQueries = len(s.queries)
	for _, w := range s.workers {
		st.RPCRetries += w.counts.RPCRetries
		st.Redials += w.counts.Redials
		st.FetchTransientRetries += w.counts.FetchRetries
		ws := w.WorkerStatus
		ws.LastHeartbeatMS = now.Sub(w.lastBeat).Milliseconds()
		st.Workers = append(st.Workers, ws)
	}
	return st
}
