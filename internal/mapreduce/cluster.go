package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// ErrClusterUnavailable marks execution failures where the substrate the
// engine runs on — a remote coordinator, its worker fleet — is unreachable,
// rather than the job itself being at fault. Remote Cluster implementations
// wrap it (e.g. cluster.ErrMasterLost) so callers up the stack can
// distinguish "the network ate my cluster" (retry later) from a genuinely
// failed query. The in-process
// LocalCluster never returns it.
var ErrClusterUnavailable = errors.New("mapreduce: cluster unavailable")

// Cluster is the execution substrate a mapreduce Engine runs on. The engine
// itself owns job semantics — split planning, the attempt/commit protocol,
// speculation, metrics — and delegates the "where does work run" questions
// to its cluster:
//
//   - a Dispatcher runs task bodies in-process (today's goroutine pools —
//     see LocalCluster);
//   - a JobRunner instead takes over whole jobs, shipping them to remote
//     workers (see internal/cluster for the RPC coordinator).
//
// Every implementation satisfies at least the base interface; the engine
// type-switches on the two capability interfaces at the corresponding seams.
type Cluster interface {
	// Name identifies the cluster implementation in errors and health
	// output ("local", "distributed", ...).
	Name() string
}

// Dispatcher is a cluster that executes task bodies in this process: the
// engine hands it closures and the dispatcher decides width, slot leasing,
// and node placement. The in-process engine path (LocalCluster) implements
// it; remote clusters do not — they take jobs whole via JobRunner instead.
type Dispatcher interface {
	Cluster
	// Dispatch runs the tasks fn(0..n-1) of the given kind ("map" or
	// "reduce"), returning the first error encountered; all started tasks
	// run to completion. ctx bounds slot waits.
	Dispatch(ctx context.Context, kind string, n int, fn func(int) error) error
	// TaskNode assigns a task attempt to a simulated data node; spills are
	// pinned to the attempt's node and traces want a stable attribution.
	TaskNode(task, attempt int) int
}

// JobRunner is a cluster that executes whole jobs elsewhere: the engine
// validates the job and then hands it over — split planning, task
// scheduling, shuffle movement, and part commits all happen on the other
// side of the seam. The returned metrics slot into the workflow exactly
// where the local run's would.
type JobRunner interface {
	Cluster
	// RunJob executes the job to completion against the cluster's DFS,
	// attaching any task spans under jsp (nil-safe). On failure the job's
	// output files must be removed, mirroring the local engine's failure
	// contract.
	RunJob(ctx context.Context, jsp *trace.Span, job *Job, cfg EngineConfig) (JobMetrics, error)
}

// LocalCluster is the default, in-process cluster: map and reduce tasks run
// on goroutine pools (or lease slots from a shared SlotPool), and task
// attempts are round-robined over the DFS's simulated data nodes. It
// preserves the engine's pre-seam behavior exactly.
type LocalCluster struct {
	dfs         *hdfs.DFS
	mapWidth    int
	reduceWidth int
	slots       SlotPool
}

// NewLocalCluster builds the in-process cluster: fixed per-run pool widths
// for map and reduce tasks (already defaults-resolved by the caller), or —
// when slots is non-nil — per-task leases from the shared pool instead.
func NewLocalCluster(dfs *hdfs.DFS, mapWidth, reduceWidth int, slots SlotPool) *LocalCluster {
	return &LocalCluster{dfs: dfs, mapWidth: mapWidth, reduceWidth: reduceWidth, slots: slots}
}

// Name implements Cluster.
func (c *LocalCluster) Name() string { return "local" }

// TaskNode implements Dispatcher: round-robin over (task + attempt) so a
// retried attempt lands on a different node than the one that just failed
// it, skipping dead nodes. The engine has no locality model, but spills are
// pinned to the attempt's node and traces want a stable attribution.
func (c *LocalCluster) TaskNode(task, attempt int) int {
	n := c.dfs.Config().Nodes
	start := (task + attempt) % n
	for k := 0; k < n; k++ {
		if cand := (start + k) % n; c.dfs.NodeAlive(cand) {
			return cand
		}
	}
	return start
}

// Dispatch implements Dispatcher. Without a SlotPool the concurrency is a
// fixed per-run worker pool of the kind's width; with one, every task
// instead leases a slot from the shared pool, so cluster-wide concurrency
// is governed by the pool rather than this run.
func (c *LocalCluster) Dispatch(ctx context.Context, kind string, n int, fn func(int) error) error {
	if c.slots != nil {
		return c.dispatchSlots(ctx, kind, n, fn)
	}
	width := c.mapWidth
	if kind == "reduce" {
		width = c.reduceWidth
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		next  int64 = -1
		errMu sync.Mutex
		first error
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// dispatchSlots runs every task under a lease from the shared slot pool:
// each task blocks until the pool grants a slot of its kind, runs to
// completion (retries and speculative backups included — runTask owns the
// whole task), and releases the slot. A task that cannot obtain a slot
// because the engine context died reports the cancellation as its error;
// once one task has failed, still-queued tasks skip their work (mirroring
// the fixed-pool path, which stops dispatching after the first error).
func (c *LocalCluster) dispatchSlots(ctx context.Context, kind string, n int, fn func(int) error) error {
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return first != nil
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release, err := c.slots.Acquire(ctx, kind)
			if err == nil {
				if failed() {
					release()
					return
				}
				err = fn(i)
				release()
			}
			if err != nil {
				errMu.Lock()
				if first == nil {
					first = err
				}
				errMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}

// dispatch routes a phase's tasks through the engine's cluster. A cluster
// that cannot dispatch in-process (a pure JobRunner) never reaches here —
// run() delegates the whole job first — so a miss is a programming error.
func (e *Engine) dispatch(kind string, n int, fn func(int) error) error {
	d, ok := e.cluster.(Dispatcher)
	if !ok {
		return fmt.Errorf("mapreduce: cluster %q cannot dispatch tasks in-process", e.cluster.Name())
	}
	return d.Dispatch(e.ctx, kind, n, fn)
}

// taskNode resolves task placement through the cluster; a cluster without a
// placement model pins everything to node 0.
func (e *Engine) taskNode(task, attempt int) int {
	if d, ok := e.cluster.(Dispatcher); ok {
		return d.TaskNode(task, attempt)
	}
	return 0
}
