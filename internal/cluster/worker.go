package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Addr is the address the worker's shuffle/Fetch endpoint binds;
	// port 0 picks a free port. Workers behind one master must be
	// mutually reachable at these addresses.
	Addr string
	// MapSlots/ReduceSlots are the concurrent task executors per kind.
	MapSlots    int
	ReduceSlots int
	// TaskDelay stretches every task by a fixed sleep — a throttle for
	// fault-injection tests that need time to kill a worker mid-job.
	TaskDelay time.Duration
	// Retry shapes every master and peer RPC: re-dial on connection loss,
	// exponential backoff with full jitter between attempts (zero values
	// take the rclient defaults).
	Retry RetryPolicy
	// FetchRetries is the per-holder attempt budget of one shuffle fetch:
	// a delayed or flaky holder is retried this many times (with backoff)
	// before its map output is declared lost and the master re-executes
	// the map task — the transient-vs-dead-holder distinction (default 3).
	FetchRetries int
	// MasterLossThreshold is how many consecutive heartbeat failures
	// (each already retried per Retry) declare the master lost and start
	// re-registration (default 3).
	MasterLossThreshold int
	// MaxPeerConns bounds the pooled peer (shuffle) connections; beyond
	// it the least-recently-used peer is evicted and closed (default 4).
	MaxPeerConns int
	// PeerIdleTimeout closes pooled peer connections that have not served
	// a fetch recently, so long-lived workers do not hoard fds across a
	// large fleet (default 45s).
	PeerIdleTimeout time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MapSlots == 0 {
		c.MapSlots = 2
	}
	if c.ReduceSlots == 0 {
		c.ReduceSlots = 2
	}
	if c.FetchRetries == 0 {
		c.FetchRetries = 3
	}
	if c.MasterLossThreshold == 0 {
		c.MasterLossThreshold = 3
	}
	if c.MaxPeerConns == 0 {
		c.MaxPeerConns = 4
	}
	if c.PeerIdleTimeout == 0 {
		c.PeerIdleTimeout = 45 * time.Second
	}
	return c
}

// outKey addresses one map task's committed output in the worker's store.
type outKey struct {
	qid   string
	jobID int64
	task  int
}

// queryPlan is a worker's rebuilt plan for one query: its jobs by name.
type queryPlan map[string]*mapreduce.Job

// peerConn is one pooled shuffle connection with its LRU timestamp.
type peerConn struct {
	rc      *rclient
	lastUse time.Time
}

// Worker executes leased task attempts against the master's DFS and serves
// its committed map output to peer workers. Its master link is a retrying,
// re-dialing client: a broken connection (or a partition) is retried with
// backoff, and after sustained loss the worker re-registers — keeping its
// committed map segments servable — instead of polling a poisoned pipe
// forever.
type Worker struct {
	cfg        WorkerConfig
	tr         Transport
	masterAddr string
	master     *rclient
	ver        string
	input      string

	ln     net.Listener
	conns  *connSet
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	// id and epoch name this worker to the master boot it registered with.
	id         int
	epoch      int64
	dict       *rdf.Dict
	hbEvery    time.Duration
	leaseEvery time.Duration
	plans      map[string]queryPlan
	outs       map[outKey][]mapreduce.Segment
	// held are the attempts leased to this worker whose Report call has not
	// returned; every heartbeat names them.
	held  map[HeldAttempt]struct{}
	peers map[string]*peerConn
	// retiredPeerRetries/-Redials carry evicted peers' counters forward so
	// the heartbeat totals never go backwards.
	retiredPeerRetries int64
	retiredPeerRedials int64
	fatalErr           error

	// regMu single-flights re-registration across the loops that notice
	// master loss; lastRereg debounces the burst of executors that all hit
	// "unknown worker" against one restarted master.
	regMu     sync.Mutex
	lastRereg time.Time
	reregs    atomic.Int64

	// syncMu single-flights dictionary syncs: concurrent executors planning
	// different queries must not interleave Extend calls.
	syncMu sync.Mutex

	jmu sync.Mutex
	rng *rand.Rand
}

// NewWorker prepares a worker that will register with the master at
// masterAddr over the transport (nil defaults to TCP).
func NewWorker(cfg WorkerConfig, tr Transport, masterAddr string) *Worker {
	if tr == nil {
		tr = TCP()
	}
	ctx, cancel := context.WithCancel(context.Background())
	seed := cfg.Retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Worker{
		cfg:        cfg.withDefaults(),
		tr:         tr,
		masterAddr: masterAddr,
		ctx:        ctx,
		cancel:     cancel,
		plans:      make(map[string]queryPlan),
		outs:       make(map[outKey][]mapreduce.Segment),
		held:       make(map[HeldAttempt]struct{}),
		peers:      make(map[string]*peerConn),
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Start registers with the master, rebuilds the dataset dictionary from the
// shipped terms, opens the Fetch endpoint, and launches the heartbeat and
// executor loops. It returns once the worker is serving.
func (w *Worker) Start() error {
	ln, err := w.tr.Listen(w.cfg.Addr)
	if err != nil {
		return err
	}
	w.ln = ln
	w.master = newRClient(w.tr, w.masterAddr, w.cfg.Retry, w.ctx.Done())
	var reply RegisterReply
	err = w.master.Call(context.Background(), "Master.Register", &RegisterArgs{
		Addr:        ln.Addr().String(),
		MapSlots:    w.cfg.MapSlots,
		ReduceSlots: w.cfg.ReduceSlots,
	}, &reply)
	if err != nil {
		w.master.Close()
		ln.Close()
		return fmt.Errorf("cluster: registering with master %s: %w", w.masterAddr, err)
	}
	w.input = reply.Input
	// Re-encoding the terms in shipped (ID) order reproduces the master's
	// IDs exactly; freezing catches any accidental divergence loudly
	// (ingest-minted terms arrive later via Dict.Extend, which is exempt).
	dict := rdf.NewDict()
	for _, t := range reply.Terms {
		dict.Encode(t)
	}
	dict.Freeze()
	w.mu.Lock()
	w.ver = reply.DatasetVersion
	w.id, w.epoch = reply.Worker, reply.Epoch
	w.dict = dict
	w.hbEvery = reply.HeartbeatEvery
	w.leaseEvery = reply.LeaseEvery
	w.mu.Unlock()

	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &workerRPC{w}); err != nil {
		w.master.Close()
		ln.Close()
		return err
	}
	w.conns = newConnSet()
	go serveRPCTracked(srv, ln, w.conns)
	w.wg.Add(1)
	go w.heartbeatLoop()
	for i := 0; i < w.cfg.MapSlots; i++ {
		w.wg.Add(1)
		go w.executor("map")
	}
	for i := 0; i < w.cfg.ReduceSlots; i++ {
		w.wg.Add(1)
		go w.executor("reduce")
	}
	return nil
}

// ID is the master-assigned worker ID (valid after Start; it can change if
// the worker re-registers with a restarted master).
func (w *Worker) ID() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Addr is the worker's bound Fetch address (valid after Start).
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Err reports why the worker gave up permanently (nil while healthy) —
// e.g. a re-registration that found the master serving a different dataset.
func (w *Worker) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fatalErr
}

// Reregistrations counts successful re-registrations after master loss.
func (w *Worker) Reregistrations() int64 { return w.reregs.Load() }

// Close tears the worker down abruptly — the "kill -9" of the simulated
// cluster: loops stop, the Fetch listener closes, and every open RPC client
// fails its in-flight calls. No goodbye is sent; the master notices via
// missed heartbeats.
func (w *Worker) Close() {
	w.cancel()
	if w.ln != nil {
		w.ln.Close()
	}
	if w.conns != nil {
		w.conns.closeAll()
	}
	if w.master != nil {
		w.master.Close()
	}
	w.mu.Lock()
	peers := w.peers
	w.peers = make(map[string]*peerConn)
	w.mu.Unlock()
	for _, pc := range peers {
		pc.rc.Close()
	}
}

// Wait blocks until the worker's loops have exited (after Close, or after
// the worker failed permanently).
func (w *Worker) Wait() { w.wg.Wait() }

func (w *Worker) fail(err error) {
	w.mu.Lock()
	if w.fatalErr == nil {
		w.fatalErr = err
	}
	w.mu.Unlock()
	w.cancel()
}

// jitter draws a wait uniformly from [d/2, 3d/2): the mean stays d, but a
// fleet of workers that all lost (and regained) the master at the same
// instant spreads its polls instead of thundering onto it in lockstep.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	w.jmu.Lock()
	j := w.rng.Int63n(int64(d))
	w.jmu.Unlock()
	return d/2 + time.Duration(j)
}

// ident is the worker's ID and the master epoch it was assigned in.
func (w *Worker) ident() (int, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.epoch
}

// version is the dataset version this worker currently tracks; it moves
// forward with ingest (heartbeats, syncs, re-registration).
func (w *Worker) version() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ver
}

func (w *Worker) setVersion(v string) {
	if v == "" {
		return
	}
	w.mu.Lock()
	w.ver = v
	w.mu.Unlock()
}

func (w *Worker) leaseWait() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.leaseEvery
}

func (w *Worker) hbWait() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hbEvery
}

// isUnknownWorker spots the master's "who are you?" — a master that
// restarted (or swept this worker away) answers method calls but does not
// recognize the ID; the only fix is re-registration, not retry.
func isUnknownWorker(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.Contains(string(se), "unknown worker")
}

// transportCounts snapshots the worker's transport-recovery counters for
// the master's fleet-wide rollup.
func (w *Worker) transportCounts() TransportCounts {
	mret, mred := w.master.Stats()
	pret, pred := w.peerStats()
	return TransportCounts{
		RPCRetries:   mret + pret,
		Redials:      mred + pred,
		FetchRetries: pret,
	}
}

// peerStats sums live and retired peer-link counters.
func (w *Worker) peerStats() (retries, redials int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	retries, redials = w.retiredPeerRetries, w.retiredPeerRedials
	for _, pc := range w.peers {
		ret, red := pc.rc.Stats()
		retries += ret
		redials += red
	}
	return retries, redials
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	misses := 0
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(w.jitter(w.hbWait())):
		}
		var reply HeartbeatReply
		id, epoch := w.ident()
		args := &HeartbeatArgs{Worker: id, Epoch: epoch, TransportCounts: w.transportCounts(), Held: w.heldAttempts()}
		err := w.master.Call(context.Background(), "Master.Heartbeat", args, &reply)
		switch {
		case err == nil:
			misses = 0
			w.prune(reply.LiveQueries)
			w.setVersion(reply.DatasetVersion)
		case isUnknownWorker(err):
			if w.reregister() {
				misses = 0
			}
		default:
			misses++
			if misses >= w.cfg.MasterLossThreshold {
				// Sustained loss: the connection-level retries inside each
				// Call are exhausted too, so stop pinging a ghost and win
				// the master back via registration.
				if w.reregister() {
					misses = 0
				}
			}
		}
		w.evictIdlePeers(time.Now())
	}
}

// isDifferentDataset spots the master's lineage refusal: the version this
// worker holds was never served by the master, so its dictionary belongs to
// another dataset entirely — fatal, not retryable.
func isDifferentDataset(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se) && strings.Contains(string(se), "not in this master's version lineage")
}

// reregister re-dials the master and registers again, announcing the
// previous ID and its epoch so a surviving master revives the same worker
// record (no double-counted slots) while a restarted one issues a fresh ID.
// Committed map segments stay servable either way, and the worker's
// transport counts ride along. The announced KnownVersion lets
// the master vet lineage: a worker that missed ingests behind a partition
// holds an *ancestor* version — acceptable, the dictionary is a prefix and
// syncs forward — while a genuinely different dataset is refused and fatal
// (the worker's IDs would silently mean different terms). Returns true on
// success.
func (w *Worker) reregister() bool {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.ctx.Err() != nil {
		return false
	}
	if time.Since(w.lastRereg) < w.hbWait() {
		// Another loop just re-registered; the caller's failure predates it.
		return true
	}
	var reply RegisterReply
	id, epoch := w.ident()
	err := w.master.Call(context.Background(), "Master.Register", &RegisterArgs{
		Addr:            w.ln.Addr().String(),
		MapSlots:        w.cfg.MapSlots,
		ReduceSlots:     w.cfg.ReduceSlots,
		PrevWorker:      id,
		PrevEpoch:       epoch,
		KnownVersion:    w.version(),
		TransportCounts: w.transportCounts(),
	}, &reply)
	if err != nil {
		if isDifferentDataset(err) {
			w.fail(fmt.Errorf("cluster: master %s refused re-registration: %w", w.masterAddr, err))
		}
		return false
	}
	w.mu.Lock()
	w.id, w.epoch = reply.Worker, reply.Epoch
	w.hbEvery = reply.HeartbeatEvery
	w.leaseEvery = reply.LeaseEvery
	if reply.DatasetVersion != "" {
		w.ver = reply.DatasetVersion
	}
	w.mu.Unlock()
	w.lastRereg = time.Now()
	w.reregs.Add(1)
	return true
}

// heldAttempts lists the attempts the worker holds, for a heartbeat.
func (w *Worker) heldAttempts() []HeldAttempt {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := make([]HeldAttempt, 0, len(w.held))
	for h := range w.held {
		held = append(held, h)
	}
	return held
}

// prune drops cached plans and map outputs of queries the master no longer
// tracks, bounding worker memory to the in-flight working set.
func (w *Worker) prune(live []string) {
	alive := make(map[string]bool, len(live))
	for _, q := range live {
		alive[q] = true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for qid := range w.plans {
		if !alive[qid] {
			delete(w.plans, qid)
		}
	}
	for k := range w.outs {
		if !alive[k.qid] {
			delete(w.outs, k)
		}
	}
}

// executor is one task slot: lease, run, report, repeat. Map slots execute
// both "map" and "maponly" specs; the kind only selects the lease queue.
// The master holds a Lease call until it has a task or a heartbeat interval
// has passed, so an empty reply is followed by the next call at once; only
// a failed call pauses (LeaseEvery).
func (w *Worker) executor(kind string) {
	defer w.wg.Done()
	for {
		if w.ctx.Err() != nil {
			return
		}
		var reply LeaseReply
		id, epoch := w.ident()
		err := w.master.Call(context.Background(), "Master.Lease", &LeaseArgs{Worker: id, Epoch: epoch, Kind: kind}, &reply)
		if err != nil && isUnknownWorker(err) {
			w.reregister()
		}
		if err != nil {
			select {
			case <-w.ctx.Done():
				return
			case <-time.After(w.jitter(w.leaseWait())):
			}
			continue
		}
		if reply.Task != nil {
			w.execute(reply.Task, id, epoch)
		}
	}
}

// fetchError carries the map tasks whose output a reduce attempt could not
// retrieve — after the per-holder retry budget, so only sustained
// unavailability (not one delayed packet) escalates — and the report
// triggers map re-execution rather than a blind retry against the same
// dead holder.
type fetchError struct {
	lost []int
}

func (e *fetchError) Error() string {
	return fmt.Sprintf("cluster: map output unavailable for tasks %v", e.lost)
}

// execute runs one attempt leased under the worker's id and epoch and
// reports its outcome under them. The attempt is held, and named in every
// heartbeat, until its Report call returns.
func (w *Worker) execute(ts *TaskSpec, id int, epoch int64) {
	h := HeldAttempt{JobID: ts.JobID, Kind: ts.Kind, Task: ts.Task, Attempt: ts.Attempt}
	w.mu.Lock()
	w.held[h] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.held, h)
		w.mu.Unlock()
	}()
	if w.cfg.TaskDelay > 0 {
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(w.cfg.TaskDelay):
		}
	}
	start := time.Now()
	rep := &ReportArgs{
		Worker:  id,
		Epoch:   epoch,
		QueryID: ts.QueryID,
		JobID:   ts.JobID,
		Kind:    ts.Kind,
		Task:    ts.Task,
		Attempt: ts.Attempt,
	}
	err := w.runTask(ts, rep)
	rep.Duration = time.Since(start)
	if err != nil {
		rep.OK = false
		rep.Err = err.Error()
		if fe, ok := err.(*fetchError); ok {
			rep.LostMaps = fe.lost
		}
		rep.Outputs = nil
	} else {
		rep.OK = true
	}
	var ack ReportReply
	// A lost report re-queues when the master reclaims its lease: the next
	// heartbeats no longer name the attempt.
	w.master.Call(context.Background(), "Master.Report", rep, &ack)
}

// syncDict brings the worker's dictionary up to at least need terms by
// pulling the newly ingested tail from the master (Master.Sync). It runs
// outside w.mu — the RPC can block, and heartbeat bookkeeping takes w.mu —
// and single-flights under syncMu so concurrent executors cannot interleave
// Extend calls. A racing sync that already applied part of the reply is
// handled by skipping the prefix this dictionary already holds.
func (w *Worker) syncDict(need int) error {
	w.mu.Lock()
	dict := w.dict
	w.mu.Unlock()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if dict.Len() >= need {
		return nil
	}
	var reply SyncReply
	if err := w.master.Call(context.Background(), "Master.Sync", &SyncArgs{Have: dict.Len()}, &reply); err != nil {
		return fmt.Errorf("cluster: syncing dictionary: %w", err)
	}
	terms := reply.Terms
	if skip := dict.Len() - reply.From; skip > 0 {
		if skip >= len(terms) {
			terms = nil
		} else {
			terms = terms[skip:]
		}
	}
	if len(terms) > 0 {
		if err := dict.Extend(terms); err != nil {
			return fmt.Errorf("cluster: extending dictionary: %w", err)
		}
	}
	w.setVersion(reply.DatasetVersion)
	return nil
}

// planFor returns (building if needed) the worker's rebuilt plan for the
// query. The rebuild is deterministic given the query spec and the shipped
// dictionary, so every worker (and the master) agrees on each job's mapper,
// reducer, combiner, and partitioner semantics. When the spec was planned
// against a longer dictionary (ingest since this worker's last sync), the
// missing terms are pulled first — before w.mu is taken, since the sync is
// an RPC.
func (w *Worker) planFor(qid string, spec *QuerySpec) (queryPlan, error) {
	w.mu.Lock()
	qp := w.plans[qid]
	w.mu.Unlock()
	if qp != nil {
		return qp, nil
	}
	if spec.DictLen > 0 {
		if err := w.syncDict(spec.DictLen); err != nil {
			return nil, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if qp, ok := w.plans[qid]; ok {
		return qp, nil
	}
	q, err := query.Parse(spec.Query, w.dict)
	if err != nil {
		return nil, err
	}
	eng, err := spec.Choice.Apply(q)
	if err != nil {
		return nil, err
	}
	var part *plan.Partitioning
	if spec.PartBuckets > 0 {
		part, err = plan.NewPartitioning(plan.PartitionKeySubject, spec.PartBuckets, spec.PartDir, w.ver)
		if err != nil {
			return nil, fmt.Errorf("cluster: rebuilding partitioning: %w", err)
		}
	}
	var cl engine.Cleaner
	// The master planned through engine.Plan over this same source, delta
	// overlay included: the widened scan inputs are appended in chain order,
	// so the positional JobInputs translation stays aligned (delta-block
	// names are process-independent).
	p, err := engine.Plan(eng, q, plan.Source{Base: spec.Input, Deltas: spec.Deltas, Part: part}, &cl)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebuilding plan: %w", err)
	}
	stages, err := p.Lower()
	if err != nil {
		return nil, fmt.Errorf("cluster: lowering rebuilt plan: %w", err)
	}
	qp = make(queryPlan)
	for _, st := range stages {
		for _, job := range st {
			if _, dup := qp[job.Name]; dup {
				return nil, fmt.Errorf("cluster: rebuilt plan has duplicate job name %q; cannot address tasks by name", job.Name)
			}
			qp[job.Name] = job
		}
	}
	w.plans[qid] = qp
	return qp, nil
}

// localInput translates a master-side input name into the worker's rebuilt
// job via position: intermediate file names differ per process (they come
// from a process-global counter), but each job's input list order is part
// of the deterministic plan.
func localInput(job *mapreduce.Job, ts *TaskSpec) (string, error) {
	for i, in := range ts.JobInputs {
		if in == ts.Split.Input {
			if i >= len(job.Inputs) {
				break
			}
			return job.Inputs[i], nil
		}
	}
	return "", fmt.Errorf("cluster: split input %q not in job %s's inputs %v (rebuilt %v)", ts.Split.Input, ts.JobName, ts.JobInputs, job.Inputs)
}

// runTask executes one attempt, filling the report's result fields, the
// attempt's own counters among them. The task bodies are the local engine's
// own (mapreduce.Run*Task); what is the worker's is where records come from
// (RPC reads of the master's DFS, peer fetches), where output goes (memory,
// shipped in the report) and the checkpoint, which stops the body once the
// worker is closed.
func (w *Worker) runTask(ts *TaskSpec, rep *ReportArgs) error {
	qp, err := w.planFor(ts.QueryID, &ts.Spec)
	if err != nil {
		return err
	}
	job := qp[ts.JobName]
	if job == nil {
		return fmt.Errorf("cluster: rebuilt plan has no job %q", ts.JobName)
	}
	hooks := mapreduce.TaskHooks{Checkpoint: func(string) error { return context.Cause(w.ctx) }}
	col := mapreduce.NewMemCollector(job)
	switch ts.Kind {
	case "map", "maponly":
		input, err := localInput(job, ts)
		if err != nil {
			return err
		}
		recs, err := w.readSplit(ts.Split)
		if err != nil {
			return err
		}
		if ts.Kind == "map" {
			mo, err := mapreduce.RunMapTask(job, ts.Task, input, ts.NumReducers, &recs, hooks)
			if err != nil {
				return err
			}
			w.mu.Lock()
			w.outs[outKey{ts.QueryID, ts.JobID, ts.Task}] = mo.Parts
			w.mu.Unlock()
			rep.Records, rep.Bytes, rep.Counters = mo.Records, mo.Bytes, mo.Counters
			return nil
		}
		var side [][]byte
		if ts.SideInput != "" {
			sideRecs, err := w.readSplit(mapreduce.Split{Input: ts.SideInput, N: -1})
			if err != nil {
				return err
			}
			side = sideRecs.Slices()
		}
		if _, err := mapreduce.RunMapOnlyTask(job, ts.Task, input, side, &recs, col, hooks); err != nil {
			return err
		}
	case "reduce":
		parts := make([]mapreduce.Segment, len(ts.Maps))
		var lost []int
		for i, ml := range ts.Maps {
			seg, err := w.fetchMap(ts, ml)
			if err != nil {
				lost = append(lost, ml.Task)
				continue
			}
			parts[i] = seg
		}
		if len(lost) > 0 {
			return &fetchError{lost: lost}
		}
		st, err := mapreduce.RunReduceTask(job, ts.Partition, parts, col, hooks)
		if err != nil {
			return err
		}
		rep.Groups, rep.InPairs, rep.InBytes = st.Groups, st.InPairs, st.InBytes
	default:
		return fmt.Errorf("cluster: unknown task kind %q", ts.Kind)
	}
	rep.Outputs = make([]Records, len(col.Outputs))
	for i, out := range col.Outputs {
		rep.Outputs[i] = out
	}
	rep.Records, rep.Bytes, rep.Counters = col.Records, col.Bytes, col.Counters
	return nil
}

// readSplit pulls a map split's records through the master's DFS, charging
// the master-side read counters exactly as a local streamed scan would
// (a retried task re-charges its re-read).
func (w *Worker) readSplit(sp mapreduce.Split) (hdfs.Records, error) {
	var reply ReadRangeReply
	if err := w.master.Call(context.Background(), "Master.ReadRange", &ReadRangeArgs{Name: sp.Input, Off: sp.Off, N: sp.N}, &reply); err != nil {
		return hdfs.Records{}, fmt.Errorf("cluster: reading split %s[%d:+%d]: %w", sp.Input, sp.Off, sp.N, err)
	}
	return reply.Records, nil
}

// fetchMap retrieves one map task's segment for this reduce partition —
// from the local store when this worker ran the map, otherwise over the
// transport from the holder. Remote fetches retry transient transport
// failures FetchRetries times (with backoff and re-dial) before giving up;
// a holder that *answers* but has no output (it restarted, or pruned the
// query) fails immediately — retrying cannot conjure the segment back.
func (w *Worker) fetchMap(ts *TaskSpec, ml MapLoc) (mapreduce.Segment, error) {
	key := outKey{ts.QueryID, ts.JobID, ml.Task}
	if ml.Worker == w.ID() {
		w.mu.Lock()
		parts := w.outs[key]
		w.mu.Unlock()
		if parts != nil {
			return parts[ts.Partition], nil
		}
		return mapreduce.Segment{}, fmt.Errorf("cluster: own map output for task %d missing", ml.Task)
	}
	peer := w.peer(ml.Addr)
	var reply FetchReply
	err := peer.Call(context.Background(), "Worker.Fetch", &FetchArgs{
		QueryID:   ts.QueryID,
		JobID:     ts.JobID,
		Task:      ml.Task,
		Partition: ts.Partition,
	}, &reply)
	if err != nil {
		return mapreduce.Segment{}, err
	}
	return mapreduce.Segment(reply.KVs), nil
}

// peer returns the pooled retrying client for a holder address, dialing
// lazily and evicting the least-recently-used peer beyond MaxPeerConns.
func (w *Worker) peer(addr string) *rclient {
	now := time.Now()
	w.mu.Lock()
	if pc, ok := w.peers[addr]; ok {
		pc.lastUse = now
		rc := pc.rc
		w.mu.Unlock()
		return rc
	}
	pol := w.cfg.Retry
	pol.MaxAttempts = w.cfg.FetchRetries
	rc := newRClient(w.tr, addr, pol, w.ctx.Done())
	w.peers[addr] = &peerConn{rc: rc, lastUse: now}
	evicted := w.evictPeersLocked(addr)
	w.mu.Unlock()
	for _, pc := range evicted {
		pc.rc.Close()
	}
	return rc
}

// evictPeersLocked trims the pool to MaxPeerConns, least-recently-used
// first, never evicting keep. Callers close the returned peers outside the
// lock; their counters are folded into the retired totals here.
func (w *Worker) evictPeersLocked(keep string) []*peerConn {
	var evicted []*peerConn
	for len(w.peers) > w.cfg.MaxPeerConns {
		oldest := ""
		for a, pc := range w.peers {
			if a == keep {
				continue
			}
			if oldest == "" || pc.lastUse.Before(w.peers[oldest].lastUse) {
				oldest = a
			}
		}
		if oldest == "" {
			break
		}
		pc := w.peers[oldest]
		delete(w.peers, oldest)
		ret, red := pc.rc.Stats()
		w.retiredPeerRetries += ret
		w.retiredPeerRedials += red
		evicted = append(evicted, pc)
	}
	return evicted
}

// evictIdlePeers closes pooled peer connections idle past the timeout —
// the fd-leak fix for long-lived workers that have fetched from many peers.
func (w *Worker) evictIdlePeers(now time.Time) {
	var idle []*peerConn
	w.mu.Lock()
	for a, pc := range w.peers {
		if now.Sub(pc.lastUse) > w.cfg.PeerIdleTimeout {
			delete(w.peers, a)
			ret, red := pc.rc.Stats()
			w.retiredPeerRetries += ret
			w.retiredPeerRedials += red
			idle = append(idle, pc)
		}
	}
	w.mu.Unlock()
	for _, pc := range idle {
		pc.rc.Close()
	}
}

// PeerConns reports the pooled peer connections (tests assert the bound).
func (w *Worker) PeerConns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.peers)
}

// workerRPC is the worker's shuffle service.
type workerRPC struct {
	w *Worker
}

// Fetch serves one committed map task's sorted segment for one partition.
func (r *workerRPC) Fetch(args *FetchArgs, reply *FetchReply) error {
	w := r.w
	w.mu.Lock()
	parts := w.outs[outKey{args.QueryID, args.JobID, args.Task}]
	id := w.id
	w.mu.Unlock()
	if parts == nil {
		return fmt.Errorf("cluster: worker %d has no output for job %d task %d", id, args.JobID, args.Task)
	}
	if args.Partition < 0 || args.Partition >= len(parts) {
		return fmt.Errorf("cluster: partition %d out of range (%d)", args.Partition, len(parts))
	}
	reply.KVs = KVs(parts[args.Partition])
	return nil
}
