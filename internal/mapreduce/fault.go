package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ntga/internal/core/hash64"
	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// This file implements the engine's fault-tolerance machinery: the seeded
// FaultPlan that fires failures *inside* task phases (and can take a whole
// simulated node down), the attempt context whose checkpoints every phase
// threads through, the per-task control block that arbitrates the commit
// race between a primary and a speculative backup attempt, and the
// job-level state that carries the speculation policy and the recovery
// counters into JobMetrics.

// FaultPlan is a deterministic chaos schedule. Every checkpoint a task
// attempt passes (one per phase boundary, plus periodic checkpoints inside
// the record loops, plus one per spill and per merge pass) draws a seeded
// hash over (job, kind, task, attempt, phase, sequence) and fails the
// attempt when the draw lands under Rate. A fault therefore interrupts an
// attempt that has already produced partial side effects — buffered map
// output, spill runs on local disk, partially-written DFS part files — so
// retries exercise the engine's cleanup and the attempt-scoped commit
// protocol for real.
type FaultPlan struct {
	// Rate is the per-checkpoint failure probability (0 disables failures;
	// a plan with only StragglerRate set injects slowdowns alone).
	Rate float64
	// Seed varies which checkpoints fail.
	Seed int64
	// NodeFailureRate is the probability that a firing fault escalates to
	// killing the attempt's data node (losing its local spill disk and
	// failing every attempt pinned to it) instead of just the attempt.
	NodeFailureRate float64
	// MaxNodeKills bounds how many nodes the plan may take down (the DFS
	// additionally refuses to kill the last live node).
	MaxNodeKills int
	// StragglerRate injects seeded slowdowns: a checkpoint that draws under
	// it sleeps StragglerDelay (interruptibly, so a speculative winner can
	// kill the sleeping loser). The draw is attempt-scoped — a backup
	// attempt of the same task re-draws — which is what lets speculative
	// execution beat an unlucky first attempt.
	StragglerRate  float64
	StragglerDelay time.Duration
}

func (p *FaultPlan) active() bool {
	return p != nil && (p.Rate > 0 || p.StragglerRate > 0)
}

// errAttemptKilled marks an attempt stopped because a rival attempt of the
// same task committed first (speculation) — not a task failure.
var errAttemptKilled = errors.New("mapreduce: attempt killed by committed rival")

// errLostRace marks an attempt that finished its work but lost the commit
// claim to a rival — also not a task failure.
var errLostRace = errors.New("mapreduce: attempt lost commit race")

// attemptNeutral reports whether an attempt error means "a rival attempt
// won", i.e. the task as a whole is fine.
func attemptNeutral(err error) bool {
	return errors.Is(err, errAttemptKilled) || errors.Is(err, errLostRace)
}

// chaosDraw maps a seeded identity to [0,1) deterministically (fnv64a via
// hash64).
func chaosDraw(job, kind string, task, attempt int, phase string, seq int, which string, seed int64) float64 {
	return float64(hash64.Mod(100000, "%s|%s|%d|%d|%s|%d|%s|%d",
		job, kind, task, attempt, phase, seq, which, seed)) / 100000
}

// taskCtl arbitrates the commit race between concurrent attempts of one
// task: exactly one attempt claims the right to publish its output; the
// moment it does, every rival's kill channel closes so stragglers stop at
// their next checkpoint and clean up their temporaries.
type taskCtl struct {
	mu      sync.Mutex
	claimed bool
	winner  int
	kills   map[int]chan struct{} // nil while attempts cannot overlap
}

// killCh registers an attempt and returns its kill channel.
func (c *taskCtl) killCh(attempt int) chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan struct{})
	if c.claimed {
		close(ch) // born dead: a rival already committed
	} else {
		c.kills[attempt] = ch
	}
	return ch
}

// claim tries to win the commit race for attempt. The winner's rivals are
// killed; a false return means some rival already committed and the caller
// must discard its own output.
func (c *taskCtl) claim(attempt int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.claimed {
		return false
	}
	c.claimed = true
	c.winner = attempt
	for a, ch := range c.kills {
		if a != attempt {
			close(ch)
		}
		delete(c.kills, a)
	}
	return true
}

// drop unregisters a finished attempt's kill channel.
func (c *taskCtl) drop(attempt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.kills, attempt)
}

func (c *taskCtl) winnerAttempt() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.winner
}

// jobRunState is the per-job-run fault and speculation state shared by
// every task of the run: the resolved fault plan, the node-kill budget,
// the per-phase duration samples the speculation policy consults, and the
// recovery counters folded into JobMetrics when the run finishes.
type jobRunState struct {
	e    *Engine
	wf   string // workflow ID scoping this run's temp namespace
	job  string
	plan *FaultPlan
	// parts records the part files the winning attempts publish; set once
	// the job's output tasks are planned.
	parts *Parts

	nodeKillsLeft int64 // atomic

	specMu   sync.Mutex
	specDone map[string][]time.Duration // completed task durations per kind, under speculation

	// Counters (atomics), folded into JobMetrics at job end — on the
	// failure path too, so a failed job's metrics still report how hard
	// the machinery tried before giving up.
	taskRetries        int64
	specLaunched       int64
	specWins           int64
	killedAttempts     int64
	nodeKills          int64
	mapRecoveries      int64
	tempBytesReclaimed int64
}

func newJobRunState(e *Engine, wf, job string) *jobRunState {
	js := &jobRunState{e: e, wf: wf, job: job, plan: e.cfg.Faults}
	if js.plan != nil {
		js.nodeKillsLeft = int64(js.plan.MaxNodeKills)
	}
	return js
}

// reclaim accounts bytes of attempt-private state (temp part files, spill
// runs) deleted because their attempt failed, was killed, or lost the race.
func (js *jobRunState) reclaim(bytes int64) {
	if js != nil && bytes > 0 {
		atomic.AddInt64(&js.tempBytesReclaimed, bytes)
	}
}

// noteDone records a winning attempt's duration for the speculation policy;
// without speculation nothing reads it, and nothing is recorded.
func (js *jobRunState) noteDone(kind string, d time.Duration) {
	if !js.e.cfg.Speculation {
		return
	}
	js.specMu.Lock()
	if js.specDone == nil {
		js.specDone = make(map[string][]time.Duration)
	}
	js.specDone[kind] = append(js.specDone[kind], d)
	js.specMu.Unlock()
}

// speculationRatio is the straggler threshold: a task running longer than
// this multiple of its phase's median completed duration gets a backup.
const speculationRatio = 2

// shouldSpeculate decides whether a task of the given kind that has been
// running for elapsed is straggling enough to deserve a backup attempt:
// longer than speculationRatio × the median completed duration of its
// phase, with a floor so micro-tasks are never speculated.
func (js *jobRunState) shouldSpeculate(kind string, elapsed time.Duration) bool {
	if elapsed < js.e.cfg.SpeculationMinRuntime {
		return false
	}
	js.specMu.Lock()
	done := append([]time.Duration(nil), js.specDone[kind]...)
	js.specMu.Unlock()
	if len(done) == 0 {
		return false
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	median := done[len(done)/2]
	threshold := speculationRatio * median
	if threshold < js.e.cfg.SpeculationMinRuntime {
		threshold = js.e.cfg.SpeculationMinRuntime
	}
	return elapsed > threshold
}

// attemptCtx is one task attempt's identity and fault surface. Every phase
// of the attempt body calls checkpoint, which is where kill signals are
// observed, node death is noticed, and the fault plan's mid-phase failures,
// node kills, and straggler delays fire.
type attemptCtx struct {
	e       *Engine
	js      *jobRunState
	ctl     *taskCtl
	kind    string
	task    int
	attempt int
	node    int
	killed  chan struct{}
	seq     int
}

// checkpoint is called at phase boundaries and inside the record loops of
// a task attempt. It returns errAttemptKilled if a rival attempt has
// committed, a wrapped hdfs.ErrNodeLost if the attempt's node has died (or
// the fault plan kills it right now), or errInjectedFailure for a plain
// mid-phase fault.
func (a *attemptCtx) checkpoint(phase string) error {
	// Cancellation outranks everything: a dead engine context stops the
	// attempt at the next phase boundary (or every 64 records inside the
	// loops), and runTask treats the error as non-retryable.
	if err := a.e.ctxErr(); err != nil {
		return fmt.Errorf("%s task %d attempt %d in %s: %w", a.kind, a.task, a.attempt, phase, err)
	}
	select {
	case <-a.killed:
		return fmt.Errorf("%w (%s task %d attempt %d in %s)", errAttemptKilled, a.kind, a.task, a.attempt, phase)
	default:
	}
	if !a.e.dfs.NodeAlive(a.node) {
		return fmt.Errorf("%s task %d attempt %d: node %d died: %w", a.kind, a.task, a.attempt, a.node, hdfs.ErrNodeLost)
	}
	p := a.js.plan
	if !p.active() {
		return nil
	}
	a.seq++
	if p.StragglerRate > 0 && p.StragglerDelay > 0 &&
		chaosDraw(a.js.job, a.kind, a.task, a.attempt, phase, a.seq, "straggle", p.Seed) < p.StragglerRate {
		if err := a.sleep(p.StragglerDelay); err != nil {
			return err
		}
	}
	if p.Rate <= 0 {
		return nil
	}
	if chaosDraw(a.js.job, a.kind, a.task, a.attempt, phase, a.seq, "fail", p.Seed) >= p.Rate {
		return nil
	}
	if p.NodeFailureRate > 0 &&
		chaosDraw(a.js.job, a.kind, a.task, a.attempt, phase, a.seq, "node", p.Seed) < p.NodeFailureRate &&
		atomic.AddInt64(&a.js.nodeKillsLeft, -1) >= 0 {
		if lost, ok := a.e.dfs.KillNode(a.node); ok {
			atomic.AddInt64(&a.js.nodeKills, 1)
			a.js.reclaim(lost)
			return fmt.Errorf("%s task %d attempt %d in %s: injected node %d failure: %w",
				a.kind, a.task, a.attempt, phase, a.node, hdfs.ErrNodeLost)
		}
		atomic.AddInt64(&a.js.nodeKillsLeft, 1) // kill refused (last live node)
	}
	return fmt.Errorf("%w (%s task %d attempt %d in %s)", errInjectedFailure, a.kind, a.task, a.attempt, phase)
}

// sleep waits for d in small slices, returning errAttemptKilled early if a
// rival attempt commits — a straggling loser must not hold the phase
// barrier for its full injected delay.
func (a *attemptCtx) sleep(d time.Duration) error {
	const slice = time.Millisecond
	deadline := time.Now().Add(d)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		if remaining > slice {
			remaining = slice
		}
		select {
		case <-a.killed:
			return fmt.Errorf("%w (%s task %d attempt %d, straggling)", errAttemptKilled, a.kind, a.task, a.attempt)
		case <-time.After(remaining):
		}
	}
}

// claim races for the task's commit right.
func (a *attemptCtx) claim() bool { return a.ctl.claim(a.attempt) }

// hooks is the attempt as the shared task bodies see it: its checkpoint and
// its (possibly nil) trace span.
func (a *attemptCtx) hooks(tsp *trace.Span) TaskHooks {
	return TaskHooks{Checkpoint: a.checkpoint, Span: tsp}
}

// runTask executes one task with retries and (optionally) speculative
// backup attempts. The body runs under an attemptCtx; it must clean up its
// own partial state (spill runs, temp part files) before returning an
// error, publish its results only after ac.claim() succeeds, and return
// errLostRace after discarding them if the claim fails. Failed attempts
// are retried with fresh attempt numbers until the attempt budget is
// exhausted. An attempt failing with hdfs.ErrNodeLost triggers the recover
// callback (if any) before the next attempt — the reduce phase uses it to
// regenerate map output that died with a node. The winning attempt's
// wall-clock duration lands in durs[task].
func (e *Engine) runTask(js *jobRunState, kind string, task int, durs []time.Duration,
	recover func() error, body func(*attemptCtx) error) error {

	t := &taskRun{e: e, js: js, kind: kind, task: task, body: body, budget: e.cfg.TaskMaxAttempts}
	t.ctl.winner = -1
	if e.cfg.Speculation {
		t.ctl.kills = make(map[int]chan struct{})
		t.results = make(chan attemptResult, t.budget+1)
		tk := time.NewTicker(500 * time.Microsecond)
		defer tk.Stop()
		t.tick = tk.C
	}
	var lastErr error
	if !t.launch() {
		return errExhausted(kind, task, t.budget, lastErr)
	}
	started := time.Now()
	backupAttempt := -1
	won := false
	for {
		r, ok := t.wait()
		if !ok { // the speculation tick: back up a straggling sole attempt
			if backupAttempt < 0 && !won && t.running == 1 && t.next < t.budget &&
				js.shouldSpeculate(kind, time.Since(started)) && t.launch() {
				backupAttempt = t.next - 1
				atomic.AddInt64(&js.specLaunched, 1)
			}
			continue
		}
		t.running--
		t.ctl.drop(r.attempt)
		if r.err == nil {
			won = true
			durs[task] = r.dur
			js.noteDone(kind, r.dur)
			if r.attempt == backupAttempt && backupAttempt >= 0 {
				atomic.AddInt64(&js.specWins, 1)
			}
		} else if err := e.attemptFailed(js, kind, task, r.err, recover, &lastErr); err != nil {
			// Drain any rival still running: it owns temp state to clean
			// up.
			for ; t.running > 0; t.running-- {
				<-t.results
			}
			return err
		}
		if t.running == 0 {
			if won {
				return nil
			}
			if !t.launch() {
				return errExhausted(kind, task, t.budget, lastErr)
			}
		}
	}
}

// taskRun is one task's attempts under runTask. Without speculation no
// backup is ever launched, so attempts never overlap: each runs on the
// task's goroutine in the task's one attemptCtx, and no rival can kill it,
// so it has no kill channel. With speculation each attempt runs on its own
// goroutine and reports on results.
type taskRun struct {
	e       *Engine
	js      *jobRunState
	kind    string
	task    int
	body    func(*attemptCtx) error
	budget  int
	next    int // attempts launched
	running int // attempts launched and not yet reported
	ctl     taskCtl
	ac      attemptCtx         // the launched attempt, without speculation
	results chan attemptResult // nil without speculation
	tick    <-chan time.Time   // the speculation check's ticker
}

type attemptResult struct {
	attempt int
	err     error
	dur     time.Duration
}

// launch starts the next attempt; it returns false when the budget is
// exhausted. Without speculation the attempt waits in t.ac for wait to run
// it.
func (t *taskRun) launch() bool {
	if t.next >= t.budget {
		return false
	}
	a := t.next
	t.next++
	if a > 0 {
		atomic.AddInt64(&t.js.taskRetries, 1)
	}
	t.running++
	ac := attemptCtx{e: t.e, js: t.js, ctl: &t.ctl, kind: t.kind, task: t.task, attempt: a, node: t.e.taskNode(t.task, a)}
	if t.results == nil {
		t.ac = ac
		return true
	}
	ac.killed = t.ctl.killCh(a)
	own := new(attemptCtx)
	*own = ac
	go func() {
		t0 := time.Now()
		err := t.body(own)
		t.results <- attemptResult{a, err, time.Since(t0)}
	}()
	return true
}

// wait returns the next attempt's result. Without speculation it runs the
// launched attempt on the task's goroutine; with it, it waits for an
// attempt's report, and returns ok false when the speculation tick comes
// first.
func (t *taskRun) wait() (r attemptResult, ok bool) {
	if t.results == nil {
		t0 := time.Now()
		err := t.body(&t.ac)
		return attemptResult{t.ac.attempt, err, time.Since(t0)}, true
	}
	select {
	case r = <-t.results:
		return r, true
	case <-t.tick:
		return r, false
	}
}

// attemptFailed accounts for an attempt that returned err. A neutral error
// (a rival committed, or an earlier attempt claimed the commit) counts a
// killed attempt; any other becomes *lastErr. It returns the error that ends
// the task at once, or nil when another attempt may run: a dead engine
// context makes the failure non-retryable, since an attempt relaunched
// would cancel at its first checkpoint and only burn the budget, and a lost
// node first has its map output recovered.
func (e *Engine) attemptFailed(js *jobRunState, kind string, task int, err error, recover func() error, lastErr *error) error {
	if attemptNeutral(err) {
		atomic.AddInt64(&js.killedAttempts, 1)
		return nil
	}
	*lastErr = err
	if e.ctxErr() != nil {
		return fmt.Errorf("%s task %d: %w", kind, task, err)
	}
	if errors.Is(err, hdfs.ErrNodeLost) && recover != nil {
		if rerr := recover(); rerr != nil {
			return fmt.Errorf("%s task %d: %w", kind, task, rerr)
		}
	}
	return nil
}

func errExhausted(kind string, task, budget int, lastErr error) error {
	return fmt.Errorf("%s task %d failed after %d attempts: %w", kind, task, budget, lastErr)
}
