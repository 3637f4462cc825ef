package mapreduce

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// SlotPool arbitrates task slots among concurrent workflows. Every
// in-process task acquires one slot of its kind ("map" or "reduce") before
// it runs and releases the slot when it finishes, so the in-flight tasks of
// every engine sharing the pool never exceed its capacity. Speculative
// backup attempts run under their task's slot — a task holds exactly one
// slot from first launch to final commit. Without EngineConfig.Slots each
// phase gets a fresh pool of GOMAXPROCS slots; a 1-slot pool runs a phase's
// tasks one at a time in index order.
//
// Acquire blocks until a slot is granted or ctx is done; the returned
// release function is idempotent. internal/server provides the
// weighted-fair implementation used by the query service.
type SlotPool interface {
	Acquire(ctx context.Context, kind string) (release func(), err error)
}

// semaphore is a pool of cap(s) slots that ignores the kind: the pool one
// phase gets when EngineConfig.Slots is nil.
type semaphore chan struct{}

// Acquire implements SlotPool.
func (s semaphore) Acquire(ctx context.Context, _ string) (func(), error) {
	select {
	case s <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			<-s
		}
	}, nil
}

// dispatch runs the tasks fn(0..n-1) of one phase of the given kind. In
// index order, each task takes one slot of its kind from the pool and runs
// on its own goroutine, releasing the slot when it returns. After the first
// task error or failed Acquire no further task starts or queues for a slot;
// dispatch waits for the tasks already started and returns that error.
func (e *Engine) dispatch(kind string, n int, fn func(int) error) error {
	slots := e.cfg.Slots
	if slots == nil {
		slots = make(semaphore, runtime.GOMAXPROCS(0))
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	for i := 0; i < n && !failed(); i++ {
		release, err := slots.Acquire(e.ctx, kind)
		if err != nil {
			fail(err)
			break
		}
		if failed() { // a task failed while this one waited for its slot
			release()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			if err := fn(i); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	return first
}

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
