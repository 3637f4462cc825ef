package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntga/internal/hdfs"
)

// Tests for the serving-era engine features: per-workflow temp
// namespacing, context cancellation, slot-pool scheduling, and the
// extended config validation.

func TestEngineConfigValidateNegative(t *testing.T) {
	cases := []struct {
		name string
		cfg  EngineConfig
		want string
	}{
		{"task max attempts", EngineConfig{TaskMaxAttempts: -2}, "TaskMaxAttempts"},
		{"merge factor", EngineConfig{MergeFactor: 1}, "MergeFactor"},
		{"sort buffer", EngineConfig{SortBufferBytes: -1}, "SortBufferBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), tc.cfg)
			if err := e.DFS().WriteFile("in", [][]byte{[]byte("a b")}); err != nil {
				t.Fatal(err)
			}
			m, err := e.Run(wordCountJob("in", "out"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run with %s = %v, want error mentioning %q", tc.name, err, tc.want)
			}
			if !m.Failed {
				t.Error("metrics not marked failed")
			}
		})
	}
	// Zeros select defaults and must stay valid.
	if err := (EngineConfig{}).withDefaults().validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
}

// TestFailedJobSweepsOnlyItsOwnWorkflow is the temp-namespace collision
// regression: engines reuse fixed job names ("ntga-group", ...), so before
// temps were scoped by workflow ID, a failing job's sweep of
// "_tmp/<job>/" would delete the attempt files of every OTHER in-flight
// workflow running a job with the same name, breaking its commit renames.
// The test holds one workflow's task open mid-write, fails a same-named
// job on a second engine over the same DFS, and requires the survivor to
// commit untouched.
func TestFailedJobSweepsOnlyItsOwnWorkflow(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 2})
	if err := dfs.WriteFile("in", [][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}

	proceed := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	blockingJob := &Job{
		Name:   "shared-name",
		Inputs: []string{"in"},
		Output: "out-a",
		MapOnly: MapOnlyFunc(func(_ string, rec []byte, col Collector) error {
			// A part file is created on its first record: collect, announce
			// that the attempt's temp file exists, then hold it open until
			// the rival job has failed and swept.
			if err := col.Collect(rec); err != nil {
				return err
			}
			once.Do(func() { close(started) })
			<-proceed
			return nil
		}),
	}
	a := NewEngine(dfs, EngineConfig{SplitRecords: 64, Slots: newCountingPool(1)})
	aErr := make(chan error, 1)
	go func() {
		_, err := a.Run(blockingJob)
		aErr <- err
	}()
	<-started
	if temps := dfs.ListPrefix("_tmp/"); len(temps) == 0 {
		t.Fatal("blocked attempt left no temp files — test premise broken")
	}

	// Same job name, same DFS, guaranteed failure (attempt budget 1 with a
	// 100% injection rate). Its failure path sweeps its own workflow prefix
	// — and must not touch workflow A's files.
	b := NewEngine(dfs, EngineConfig{Faults: &FaultPlan{Rate: 1.0}})
	failing := &Job{
		Name:    "shared-name",
		Inputs:  []string{"in"},
		Output:  "out-b",
		MapOnly: MapOnlyFunc(func(_ string, rec []byte, col Collector) error { return col.Collect(rec) }),
	}
	if _, err := b.Run(failing); err == nil {
		t.Fatal("injected-failure job unexpectedly succeeded")
	}
	if temps := dfs.ListPrefix("_tmp/"); len(temps) == 0 {
		t.Fatal("rival job's failure sweep deleted the in-flight workflow's attempt temps")
	}

	close(proceed)
	if err := <-aErr; err != nil {
		t.Fatalf("surviving workflow failed: %v", err)
	}
	recs, err := dfs.ReadAll("out-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("survivor output has %d records, want 2", len(recs))
	}
	if temps := dfs.ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked: %v", temps)
	}
}

// TestConcurrentSameNameWorkflows runs many same-named jobs concurrently
// over one DFS and requires every output to be byte-identical to a serial
// run — the serving scenario where independent queries reuse engine job
// names.
func TestConcurrentSameNameWorkflows(t *testing.T) {
	input := make([][]byte, 60)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("w%d w%d", i%7, i%3))
	}
	serial := func() [][]byte {
		e := newTestEngine(t, hdfs.Config{})
		if err := e.DFS().WriteFile("in", input); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(wordCountJob("in", "out")); err != nil {
			t.Fatal(err)
		}
		recs, _ := e.DFS().ReadAll("out")
		return recs
	}()

	dfs := hdfs.New(hdfs.Config{Nodes: 4})
	if err := dfs.WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	const n = 8
	outs := make([][][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEngine(dfs, EngineConfig{SplitRecords: 4, DefaultReducers: 3})
			out := fmt.Sprintf("out-%d", i)
			if _, err := e.Run(wordCountJob("in", out)); err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = dfs.ReadAll(out)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if len(outs[i]) != len(serial) {
			t.Fatalf("run %d: %d records, serial %d", i, len(outs[i]), len(serial))
		}
		for j := range serial {
			if !bytes.Equal(outs[i][j], serial[j]) {
				t.Fatalf("run %d record %d = %q, serial %q", i, j, outs[i][j], serial[j])
			}
		}
	}
	if temps := dfs.ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked: %v", temps)
	}
}

// TestCancelMidMapReclaimsSpills cancels a run from inside the map phase
// (after spill runs exist) and requires: the context error surfaces, no
// retries are burned on a dead context, the spilled bytes are accounted as
// reclaimed, and the DFS is left with only the input.
func TestCancelMidMapReclaimsSpills(t *testing.T) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
		SplitRecords:    200,
		Slots:           newCountingPool(2),
		SortBufferBytes: 64, // spill every few records
		TaskMaxAttempts: 5,
	})
	input := make([][]byte, 1000)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("w%d w%d w%d", i%17, i%13, i%7))
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	job := wordCountJob("in", "out")
	base := job.Mapper
	job.Mapper = MapperFunc(func(name string, rec []byte, out Emitter) error {
		// Cancel once enough records flowed that in-flight attempts have
		// spilled; they notice at their next periodic checkpoint.
		if seen.Add(1) == 300 {
			cancel()
		}
		return base.Map(name, rec, out)
	})
	m, err := e.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if !m.Failed {
		t.Error("metrics not marked failed")
	}
	if m.TaskRetries != 0 {
		t.Errorf("TaskRetries = %d after cancellation, want 0 (cancellation must not be retried)", m.TaskRetries)
	}
	if m.TempBytesReclaimed == 0 {
		t.Error("TempBytesReclaimed = 0, want the cancelled attempts' spill bytes accounted")
	}
	if temps := e.DFS().ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked: %v", temps)
	}
	if files := e.DFS().List(); len(files) != 1 || files[0] != "in" {
		t.Errorf("DFS after cancelled run = %v, want only the input", files)
	}
}

// TestCancelMidReduceSweepsPartFiles cancels from inside a reduce task —
// after attempt-private DFS part files hold bytes — and requires the
// commit protocol to reclaim them all.
func TestCancelMidReduceSweepsPartFiles(t *testing.T) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
		SplitRecords: 16, DefaultReducers: 4, TaskMaxAttempts: 3,
	})
	input := make([][]byte, 64)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("w%d", i)) // 64 distinct keys
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reduced atomic.Int64
	job := wordCountJob("in", "out")
	base := job.StreamReducer
	job.StreamReducer = StreamReducerFunc(func(key []byte, vals ValueIter, out Collector) error {
		if err := base.Reduce(key, vals, out); err != nil {
			return err
		}
		// Every reduce task has now streamed at least one record into its
		// attempt-private part file; cancel and let the checkpoints stop
		// the tasks mid-write.
		if reduced.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	m, err := e.WithContext(ctx).Run(job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if m.TempBytesReclaimed == 0 {
		t.Error("TempBytesReclaimed = 0, want aborted part-file bytes accounted")
	}
	if temps := e.DFS().ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked: %v", temps)
	}
	if files := e.DFS().List(); len(files) != 1 || files[0] != "in" {
		t.Errorf("DFS after cancelled run = %v, want only the input", files)
	}
}

func TestWorkflowCancelledBetweenStages(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("a b c")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the first stage
	wf, err := e.WithContext(ctx).RunWorkflow([]Stage{{wordCountJob("in", "out")}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWorkflow = %v, want context.Canceled", err)
	}
	if !wf.Failed {
		t.Error("workflow not marked failed")
	}
	if files := e.DFS().List(); len(files) != 1 || files[0] != "in" {
		t.Errorf("DFS after cancelled workflow = %v, want only the input", files)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{SplitRecords: 8, Slots: newCountingPool(2)})
	input := make([][]byte, 64)
	for i := range input {
		input[i] = []byte("x y z")
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("in", "out")
	base := job.Mapper
	job.Mapper = MapperFunc(func(name string, rec []byte, out Emitter) error {
		time.Sleep(2 * time.Millisecond) // guarantee the deadline fires mid-run
		return base.Map(name, rec, out)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.WithContext(ctx).Run(job); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
	if temps := e.DFS().ListPrefix("_tmp/"); len(temps) != 0 {
		t.Errorf("temp files leaked: %v", temps)
	}
}

// countingPool is a minimal SlotPool that enforces a hard cap (shared by
// both kinds) and records how often it was asked for a slot and the
// high-water mark of concurrently held slots.
type countingPool struct {
	sem      chan struct{}
	acquires atomic.Int64
	mu       sync.Mutex
	held     int
	peak     int
}

func newCountingPool(capacity int) *countingPool {
	return &countingPool{sem: make(chan struct{}, capacity)}
}

func (p *countingPool) Acquire(ctx context.Context, kind string) (func(), error) {
	p.acquires.Add(1)
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	p.mu.Lock()
	p.held++
	if p.held > p.peak {
		p.peak = p.held
	}
	p.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.held--
			p.mu.Unlock()
			<-p.sem
		})
	}, nil
}

func TestSlotPoolGovernsTaskConcurrency(t *testing.T) {
	pool := newCountingPool(2)
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
		SplitRecords:    4,
		DefaultReducers: 6,
		Slots:           pool,
	})
	input := make([][]byte, 64)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("w%d w%d", i%11, i%5))
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}
	if pool.peak > 2 {
		t.Errorf("slot pool exceeded: peak concurrent slots = %d, cap 2", pool.peak)
	}
	if pool.held != 0 {
		t.Errorf("%d slots still held after run", pool.held)
	}
	recs, err := e.DFS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 { // 11 distinct words
		t.Errorf("output groups = %d, want 11", len(recs))
	}
}

// TestFailedPhaseStopsQueueingForSlots fails the first of eight map tasks
// under a 1-slot pool: the phase stops asking for slots, so at most the
// task queued behind the failure takes one and hands it straight back.
func TestFailedPhaseStopsQueueingForSlots(t *testing.T) {
	pool := newCountingPool(1)
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{SplitRecords: 1, TaskMaxAttempts: 1, Slots: pool})
	input := make([][]byte, 8)
	for i := range input {
		input[i] = []byte(fmt.Sprintf("r%d", i))
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := &Job{
		Name: "fail-first", Inputs: []string{"in"}, Output: "out",
		MapOnly: MapOnlyFunc(func(_ string, rec []byte, col Collector) error {
			if string(rec) == "r0" {
				return boom
			}
			return col.Collect(rec)
		}),
	}
	m, err := e.Run(job)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	if m.MapTasks != 8 {
		t.Fatalf("MapTasks = %d, want 8", m.MapTasks)
	}
	if n := pool.acquires.Load(); n > 2 {
		t.Errorf("Acquire called %d times after task 0 failed, want at most 2", n)
	}
	if pool.held != 0 {
		t.Errorf("%d slots still held after run", pool.held)
	}
}

// startOrder records the order tasks start in; as a map-only factory it
// records its own tasks.
type startOrder struct {
	mu     sync.Mutex
	starts []int
}

func (f *startOrder) NewTask(task int, _ [][]byte) (MapOnlyMapper, error) {
	f.mu.Lock()
	f.starts = append(f.starts, task)
	f.mu.Unlock()
	return MapOnlyFunc(func(_ string, rec []byte, col Collector) error { return col.Collect(rec) }), nil
}

// TestOneSlotRunsTasksInIndexOrder: a 1-slot pool runs each phase's tasks
// one at a time, in index order — the serial execution the seeded fault
// scans rely on.
func TestOneSlotRunsTasksInIndexOrder(t *testing.T) {
	const n = 8
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{SplitRecords: 1, DefaultReducers: n, Slots: newCountingPool(1)})
	input := make([][]byte, n)
	for i := range input {
		input[i] = []byte{'0' + byte(i)}
	}
	if err := e.DFS().WriteFile("in", input); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}

	maps := &startOrder{}
	if _, err := e.Run(&Job{Name: "order-map", Inputs: []string{"in"}, Output: "out-map", MapOnlyFactory: maps}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(maps.starts) != fmt.Sprint(want) {
		t.Errorf("map tasks started in order %v, want %v", maps.starts, want)
	}

	// Key i goes to reduce partition i, so the reducer sees the partitions
	// in the order they ran.
	reduces := &startOrder{}
	job := &Job{
		Name: "order-reduce", Inputs: []string{"in"}, Output: "out-reduce",
		Mapper: MapperFunc(func(_ string, rec []byte, out Emitter) error { return out.Emit(rec, nil) }),
		StreamReducer: StreamReducerFunc(func(key []byte, _ ValueIter, out Collector) error {
			reduces.mu.Lock()
			reduces.starts = append(reduces.starts, int(key[0]-'0'))
			reduces.mu.Unlock()
			return out.Collect(key)
		}),
		Partitioner: func(key []byte, _ int) int { return int(key[0] - '0') },
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reduces.starts) != fmt.Sprint(want) {
		t.Errorf("reduce tasks ran in order %v, want %v", reduces.starts, want)
	}
}
