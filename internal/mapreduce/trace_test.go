package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// tracedWorkload builds a seeded wordcount-style workload big enough to
// exercise spilling, retries, and multiple reduce partitions, runs it as a
// two-stage workflow on a fresh cluster, and returns the tracer.
func tracedWorkload(t *testing.T) (*trace.Tracer, WorkflowMetrics) {
	t.Helper()
	tr := trace.New()
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
		SplitRecords:    8,
		DefaultReducers: 3,
		SortBufferBytes: 64,                              // force several spills per map task
		MergeFactor:     2,                               // force intermediate merge passes
		Faults:          &FaultPlan{Rate: 0.05, Seed: 7}, // deterministic injected retries
		TaskMaxAttempts: 4,
		Tracer:          tr,
	})
	var lines [][]byte
	for j := 0; j < 64; j++ {
		lines = append(lines, []byte(fmt.Sprintf("w%d w%d w%d w%d", j%7, j%13, j%3, j%5)))
	}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	wf, err := e.RunWorkflowNamed("test-wf", []Stage{
		{wordCountJob("in", "mid")},
		{wordCountJob("mid", "out")},
	})
	if err != nil {
		t.Fatalf("RunWorkflowNamed: %v", err)
	}
	return tr, wf
}

func TestTraceDeterministicSpanTree(t *testing.T) {
	// Two runs of the same seeded workload must produce identical span
	// trees — names, nesting, task/node/attempt attribution, record and
	// byte counts — differing only in timestamps (which TreeString omits).
	// The engine's goroutine pools make span *creation* order racy; the
	// engine-assigned ordering groups must absorb that.
	tr1, _ := tracedWorkload(t)
	tr2, _ := tracedWorkload(t)
	s1, s2 := trace.TreeString(tr1.Roots()), trace.TreeString(tr2.Roots())
	if s1 != s2 {
		t.Fatalf("span trees differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
	if !strings.Contains(s1, "attempt=1") {
		t.Fatal("workload was expected to exercise task retries (attempt=1 spans)")
	}
}

func TestTraceCoversJobsTasksAndPhases(t *testing.T) {
	tr, wf := tracedWorkload(t)
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Kind != trace.KindWorkflow || roots[0].Name != "test-wf" {
		t.Fatalf("want a single workflow root, got %d roots", len(roots))
	}
	jobs := roots[0].Children()
	if len(jobs) != len(wf.Jobs) {
		t.Fatalf("workflow has %d job spans, metrics report %d jobs", len(jobs), len(wf.Jobs))
	}
	kinds := map[trace.Kind]int{}
	for ji, job := range jobs {
		if job.Kind != trace.KindJob || job.Name != wf.Jobs[ji].Job {
			t.Fatalf("job span %d = (%s, %q), want (job, %q)", ji, job.Kind, job.Name, wf.Jobs[ji].Job)
		}
		// An injected failure interrupts an attempt mid-body, so a retried
		// task has attempt spans that stop short of their last phases; what
		// must hold is that every task index has one attempt with them all.
		mapTasks, reduceTasks := map[int]bool{}, map[int]bool{}
		commits := 0
		for _, c := range job.Children() {
			switch {
			case c.Kind == trace.KindTask && c.Name == "map":
				var hasScan, hasMap, hasSort bool
				for _, p := range c.Children() {
					kinds[p.Kind]++
					switch p.Kind {
					case trace.KindScan:
						hasScan = true
					case trace.KindMap:
						hasMap = true
					case trace.KindSort:
						hasSort = true
					}
				}
				if hasScan && hasMap && hasSort {
					mapTasks[c.Task] = true
				}
			case c.Kind == trace.KindTask && c.Name == "reduce":
				var hasReduce, hasWrite bool
				for _, p := range c.Children() {
					kinds[p.Kind]++
					switch p.Kind {
					case trace.KindReduce:
						hasReduce = true
					case trace.KindWrite:
						hasWrite = true
					}
				}
				if hasReduce && hasWrite {
					reduceTasks[c.Task] = true
				}
			case c.Kind == trace.KindCommit:
				commits++
			default:
				t.Fatalf("unexpected job child: kind=%s name=%q", c.Kind, c.Name)
			}
			if c.Kind == trace.KindTask && (c.Node < 0 || c.Node >= 4) {
				t.Fatalf("task span node = %d, want 0..3", c.Node)
			}
		}
		if len(mapTasks) != wf.Jobs[ji].MapTasks {
			t.Errorf("job %q: %d map tasks traced with scan/map/sort phases, metrics say %d", job.Name, len(mapTasks), wf.Jobs[ji].MapTasks)
		}
		if len(reduceTasks) != wf.Jobs[ji].ReduceTasks {
			t.Errorf("job %q: %d reduce tasks traced with reduce/write phases, metrics say %d", job.Name, len(reduceTasks), wf.Jobs[ji].ReduceTasks)
		}
		if commits != 1 {
			t.Errorf("job %q: %d commit spans, want 1", job.Name, commits)
		}
	}
	// The workload spills and over-runs the merge factor, so spill and
	// merge phases must appear somewhere.
	if kinds[trace.KindSpill] == 0 {
		t.Error("no spill phases recorded despite a 64-byte sort buffer")
	}
	if kinds[trace.KindMerge] == 0 {
		t.Error("no merge phases recorded despite MergeFactor=2")
	}
}

func TestTraceChromeExportBalanced(t *testing.T) {
	// Every B event from a real engine run must be closed by a matching E
	// on the same (pid, tid) track, LIFO order — the invariant Perfetto
	// needs to reconstruct the flame graph.
	tr, _ := tracedWorkload(t)
	events := trace.ChromeEvents(tr.Roots(), tr.Epoch())
	type track struct{ pid, tid int }
	stacks := map[track][]string{}
	for i, ev := range events {
		k := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: E %q does not close the open B on track %v (stack %v)", i, ev.Name, k, st)
			}
			stacks[k] = st[:len(st)-1]
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts < 0 {
			t.Fatalf("event %d: negative timestamp %v", i, ev.Ts)
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("track %v left unclosed spans: %v", k, st)
		}
	}
}

func TestTraceTimelineRenders(t *testing.T) {
	tr, _ := tracedWorkload(t)
	out := trace.Timeline(tr.Roots())
	for _, want := range []string{"timeline: job wordcount", "map[0]", "reduce[0]", "commit", "scan", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestRunUntracedHasNoSpansButFullMetrics(t *testing.T) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{SplitRecords: 4, DefaultReducers: 2})
	lines := [][]byte{[]byte("a b"), []byte("b c"), []byte("c a"), []byte("a c")}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	// Task-timing summaries are populated even without a tracer.
	if m.MapTaskStats.Tasks != m.MapTasks || m.ReduceTaskStats.Tasks != m.ReduceTasks {
		t.Errorf("task stats = %+v / %+v, want %d map and %d reduce tasks",
			m.MapTaskStats, m.ReduceTaskStats, m.MapTasks, m.ReduceTasks)
	}
	if m.MapTaskStats.StragglerRatio <= 0 || m.ReduceTaskStats.StragglerRatio <= 0 {
		t.Errorf("straggler ratios not populated: %+v / %+v", m.MapTaskStats, m.ReduceTaskStats)
	}
	if m.ReduceKeySkew <= 0 || m.ReduceByteSkew <= 0 {
		t.Errorf("reduce skew not populated: key=%v byte=%v", m.ReduceKeySkew, m.ReduceByteSkew)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	lines := [][]byte{[]byte("a b c")}
	newEng := func(cfg EngineConfig) *Engine {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), cfg)
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := newEng(EngineConfig{MergeFactor: 1})
	m, err := e.Run(wordCountJob("in", "out"))
	if err == nil || !strings.Contains(err.Error(), "MergeFactor") {
		t.Fatalf("MergeFactor=1 error = %v, want a MergeFactor validation error", err)
	}
	if !m.Failed {
		t.Error("metrics for a rejected config must be marked Failed")
	}

	e = newEng(EngineConfig{SortBufferBytes: -1})
	_, err = e.Run(wordCountJob("in", "out"))
	if err == nil || !strings.Contains(err.Error(), "SortBufferBytes") {
		t.Fatalf("SortBufferBytes=-1 error = %v, want a SortBufferBytes validation error", err)
	}

	// The zero config (defaults) and a valid explicit config must pass.
	for _, cfg := range []EngineConfig{{}, {MergeFactor: 2, SortBufferBytes: 128}} {
		e = newEng(cfg)
		if _, err := e.Run(wordCountJob("in", "out")); err != nil {
			t.Fatalf("valid config %+v rejected: %v", cfg, err)
		}
	}
}
