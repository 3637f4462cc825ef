package mapreduce

import (
	"context"
	"runtime"
	"sync"
)

// SlotPool arbitrates task slots among concurrent workflows. Every
// in-process task acquires one slot of its kind ("map" or "reduce") before
// it runs and releases the slot when it finishes, so the in-flight tasks of
// every engine sharing the pool never exceed its capacity. Speculative
// backup attempts run under their task's slot — a task holds exactly one
// slot from first launch to final commit. Without EngineConfig.Slots each
// phase runs on GOMAXPROCS slots of its own; a 1-slot pool runs a phase's
// tasks one at a time in index order.
//
// Acquire blocks until a slot is granted or ctx is done; the returned
// release function is idempotent. internal/server provides the
// weighted-fair implementation used by the query service.
type SlotPool interface {
	Acquire(ctx context.Context, kind string) (release func(), err error)
}

// dispatch runs the tasks fn(0..n-1) of one phase of the given kind. In
// index order, each task takes one slot of its kind from the pool and runs
// on its own goroutine, releasing the slot when it returns. After the first
// task error or failed Acquire no further task starts or queues for a slot;
// dispatch waits for the tasks already started and returns that error.
// Without a pool the phase holds GOMAXPROCS slots of its own, as tokens in
// a channel.
func (e *Engine) dispatch(kind string, n int, fn func(int) error) error {
	var own chan struct{}
	if e.cfg.Slots == nil {
		own = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	var (
		wg    sync.WaitGroup
		first firstErr
	)
	for i := 0; i < n && !first.failed(); i++ {
		release, err := e.acquire(own, kind)
		if err != nil {
			first.set(err)
			break
		}
		if first.failed() { // a task failed while this one waited for its slot
			free(own, release)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer free(own, release)
			if err := fn(i); err != nil {
				first.set(err)
			}
		}()
	}
	wg.Wait()
	return first.get()
}

// acquire takes one slot of kind for a task: a token of the phase's own
// slots when there is no pool (release is then nil), else a slot of the
// pool.
func (e *Engine) acquire(own chan struct{}, kind string) (release func(), err error) {
	if own == nil {
		return e.cfg.Slots.Acquire(e.ctx, kind)
	}
	select {
	case own <- struct{}{}:
		return nil, nil
	case <-e.ctx.Done():
		return nil, context.Cause(e.ctx)
	}
}

// free gives back a slot acquire took.
func free(own chan struct{}, release func()) {
	if release != nil {
		release()
		return
	}
	<-own
}

// firstErr keeps the first error its tasks report.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func (f *firstErr) failed() bool { return f.get() != nil }

// taskNode places a task attempt on a simulated data node: round-robin over
// (task + attempt) so a retried attempt lands on a different node than the
// one that just failed it, skipping dead nodes. The engine has no locality
// model, but spills are pinned to the attempt's node and traces want a
// stable attribution.
func (e *Engine) taskNode(task, attempt int) int {
	n := e.dfs.Config().Nodes
	start := (task + attempt) % n
	for k := 0; k < n; k++ {
		if cand := (start + k) % n; e.dfs.NodeAlive(cand) {
			return cand
		}
	}
	return start
}
