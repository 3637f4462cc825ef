package mapreduce

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// recordSink is a Sink that keeps each committed task's records, copied, in
// task order. delay, if set, is spent inside every Collect.
type recordSink struct {
	delay    time.Duration
	mu       sync.Mutex
	tasks    [][][]byte
	attempts int
	commits  int
}

func (s *recordSink) Attempt() SinkAttempt {
	s.mu.Lock()
	s.attempts++
	s.mu.Unlock()
	return &recordAttempt{s: s}
}

// records are the committed records, task after task.
func (s *recordSink) records() [][]byte {
	var out [][]byte
	for _, t := range s.tasks {
		out = append(out, t...)
	}
	return out
}

type recordAttempt struct {
	s    *recordSink
	recs [][]byte
}

func (a *recordAttempt) Collect(rec []byte) error {
	if a.s.delay > 0 {
		time.Sleep(a.s.delay)
	}
	a.recs = append(a.recs, slices.Clone(rec))
	return nil
}

func (a *recordAttempt) Commit(task int) {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	for len(a.s.tasks) <= task {
		a.s.tasks = append(a.s.tasks, nil)
	}
	a.s.tasks[task] = a.recs
	a.s.commits++
}

// sinkJobs are a shuffle job and a map-only job with an extra output, over
// "in", each writing "out".
func sinkJobs() []*Job {
	copyJob := &Job{
		Name: "copy", Inputs: []string{"in"}, Output: "out", ExtraOutputs: []string{"side"},
		MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error {
			if err := c.Collect(r); err != nil {
				return err
			}
			return c.(NamedCollector).CollectTo("side", r[:1])
		}),
	}
	return []*Job{wordCountJob("in", "out"), copyJob}
}

func sinkInput(t *testing.T, e *Engine) {
	t.Helper()
	var lines [][]byte
	for j := 0; j < 200; j++ {
		lines = append(lines, []byte(fmt.Sprintf("w%d w%d w%d", j%17, j%29, j%3)))
	}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
}

// TestSinkTakesMainOutput: a sunk job hands the sink exactly the records,
// in task order, that the same job writes to its output file without one,
// writes no part of the main output to the DFS and counts only its extra
// outputs as written. The persisted form writes the file as before and
// hands the sink the same records.
func TestSinkTakesMainOutput(t *testing.T) {
	for _, mk := range sinkJobs() {
		newEngine := func() *Engine {
			e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{SplitRecords: 16, DefaultReducers: 5})
			sinkInput(t, e)
			return e
		}
		plain := newEngine()
		pm, err := plain.Run(mk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.DFS().ReadAll("out")
		if err != nil {
			t.Fatal(err)
		}
		for _, persist := range []bool{false, true} {
			label := fmt.Sprintf("%s (persist %v)", mk.Name, persist)
			e, sink := newEngine(), &recordSink{}
			job := *mk
			job.Sink, job.Persist = sink, persist
			m, err := e.Run(&job)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := sink.records(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s: sink holds %d records, the plain output %d, or out of order", label, len(got), len(want))
			}
			tasks := m.ReduceTasks
			if m.MapOnly {
				tasks = m.MapTasks
			}
			if sink.commits != tasks || sink.attempts != tasks {
				t.Errorf("%s: %d attempts, %d commits; want one each for %d tasks", label, sink.attempts, sink.commits, tasks)
			}
			if persist {
				got, err := e.DFS().ReadAll("out")
				if err != nil || !slices.EqualFunc(got, want, slices.Equal) || m.Sunk ||
					m.ReduceOutputBytes != pm.ReduceOutputBytes {
					t.Errorf("%s: file of %d records (%v), sunk=%v, wrote %d bytes, want the plain run's %d",
						label, len(got), err, m.Sunk, m.ReduceOutputBytes, pm.ReduceOutputBytes)
				}
				continue
			}
			var sideBytes int64
			if e.DFS().Exists("side") {
				sideBytes, _ = e.DFS().FileSize("side")
			}
			if e.DFS().Exists("out") || !m.Sunk || m.ReduceOutputBytes != sideBytes {
				t.Errorf("%s: out exists %v, sunk=%v, wrote %d bytes; want no file and only the %d side bytes",
					label, e.DFS().Exists("out"), m.Sunk, m.ReduceOutputBytes, sideBytes)
			}
			if files := e.DFS().ListPrefix("out"); len(files) != 0 {
				t.Errorf("%s: main-output files %v", label, files)
			}
		}
	}
}

// TestSinkExactlyOnceUnderFaults: with attempts failing mid-task, nodes
// dying and speculative rivals racing, the sink ends up with every task's
// records once — what a fault-free run writes — and no attempt leaves a
// temporary behind.
func TestSinkExactlyOnceUnderFaults(t *testing.T) {
	for _, mk := range sinkJobs() {
		plain := NewEngine(hdfs.New(hdfs.Config{Nodes: 6}), EngineConfig{SplitRecords: 16, DefaultReducers: 5})
		sinkInput(t, plain)
		if _, err := plain.Run(mk); err != nil {
			t.Fatal(err)
		}
		want, _ := plain.DFS().ReadAll("out")
		var retries, spec int64
		for seed := int64(1); seed <= 8; seed++ {
			e := NewEngine(hdfs.New(hdfs.Config{Nodes: 6}), EngineConfig{
				SplitRecords: 16, DefaultReducers: 5, SortBufferBytes: 256, TaskMaxAttempts: 16,
				Speculation: true, SpeculationMinRuntime: time.Millisecond,
				Faults: &FaultPlan{Rate: 0.05, Seed: seed, NodeFailureRate: 0.3, MaxNodeKills: 1,
					StragglerRate: 0.1, StragglerDelay: 5 * time.Millisecond},
			})
			sinkInput(t, e)
			sink := &recordSink{}
			job := *mk
			job.Sink = sink
			m, err := e.Run(&job)
			if err != nil {
				t.Fatalf("%s seed %d: %v", mk.Name, seed, err)
			}
			if got := sink.records(); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s seed %d: sink holds %d records, want the fault-free %d in order", mk.Name, seed, len(got), len(want))
			}
			if tmp := e.DFS().ListPrefix("_tmp/"); len(tmp) != 0 || e.DFS().Exists("out") {
				t.Errorf("%s seed %d: temporaries %v, out exists %v", mk.Name, seed, tmp, e.DFS().Exists("out"))
			}
			retries += m.TaskRetries
			spec += m.SpeculativeLaunched
		}
		if retries == 0 || spec == 0 {
			t.Errorf("%s: %d retries, %d speculative attempts over all seeds; want both", mk.Name, retries, spec)
		}
	}
}

// TestSinkCollectTimedAsWrite: on a traced task, the time spent handing
// records to the sink is the task's write phase, carved out of its map or
// reduce phase as DFS appends are, so the phases still add up.
func TestSinkCollectTimedAsWrite(t *testing.T) {
	const delay = 200 * time.Microsecond
	for _, mk := range sinkJobs() {
		tr := trace.New()
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{SplitRecords: 50, DefaultReducers: 2, Tracer: tr})
		sinkInput(t, e)
		sink := &recordSink{delay: delay}
		job := *mk
		job.Sink = sink
		if _, err := e.Run(&job); err != nil {
			t.Fatal(err)
		}
		var work string
		tr.Roots()[0].Walk(func(s *trace.Span, _ int) {
			if s.Kind != trace.KindTask || s.Name != map[bool]string{true: "map", false: "reduce"}[mk.ShuffleFree()] {
				return
			}
			var write, body time.Duration
			var written int64
			for _, p := range s.Children() {
				switch p.Kind {
				case trace.KindWrite:
					write, written = p.Duration(), p.Records
				case trace.KindMap, trace.KindReduce:
					body, work = p.Duration(), p.Name
				}
			}
			sunk := int64(len(sink.tasks[s.Task]))
			if written < sunk || write < time.Duration(sunk)*delay {
				t.Errorf("%s task %d: write phase %v for %d records, want ≥ %v for %d sunk",
					mk.Name, s.Task, write, written, time.Duration(sunk)*delay, sunk)
			}
			if sunk > 0 && body >= write {
				t.Errorf("%s task %d: %s phase %v not shorter than the write phase %v", mk.Name, s.Task, work, body, write)
			}
		})
	}
}
