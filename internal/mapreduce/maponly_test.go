package mapreduce

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ntga/internal/hdfs"
)

// sumMapper is a stateful TaskMapper: it accumulates its split's integer
// records and emits one "task:sum" record at Flush, plus routes every record
// it saw into a declared extra output. It exists to exercise the factory,
// side-input, and Flush paths of whole-file map-only jobs.
type sumMapper struct {
	task  int
	side  [][]byte
	extra string
	sum   int
	seen  int
}

func (m *sumMapper) MapRecord(_ string, record []byte, out Collector) error {
	var v int
	if _, err := fmt.Sscanf(string(record), "%d", &v); err != nil {
		return err
	}
	m.sum += v
	m.seen++
	if m.extra != "" {
		nc := out.(NamedCollector)
		return nc.CollectTo(m.extra, record)
	}
	return nil
}

func (m *sumMapper) Flush(out Collector) error {
	base := 0
	for _, s := range m.side {
		var v int
		fmt.Sscanf(string(s), "%d", &v)
		base += v
	}
	return out.Collect([]byte(fmt.Sprintf("task%d:%d", m.task, base+m.sum)))
}

type sumFactory struct {
	extras []string
}

func (f *sumFactory) NewTask(task int, side [][]byte) (TaskMapper, error) {
	extra := ""
	if task < len(f.extras) {
		extra = f.extras[task]
	}
	return &sumMapper{task: task, side: side, extra: extra}, nil
}

func writeInts(t *testing.T, dfs *hdfs.DFS, name string, vals ...int) {
	t.Helper()
	recs := make([][]byte, len(vals))
	for i, v := range vals {
		recs[i] = []byte(fmt.Sprintf("%d", v))
	}
	if err := dfs.WriteFile(name, recs); err != nil {
		t.Fatal(err)
	}
}

func TestWholeFileMapOnlyFactory(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	writeInts(t, e.DFS(), "in0", 1, 2, 3, 4, 5, 6) // > SplitRecords: must stay one task
	writeInts(t, e.DFS(), "in1", 10, 20)
	writeInts(t, e.DFS(), "in2") // empty bucket still gets a task
	writeInts(t, e.DFS(), "side1", 100)

	job := &Job{
		Name:            "bucket-sum",
		Inputs:          []string{"in0", "in1", "in2"},
		Output:          "out",
		ExtraOutputs:    []string{"copy0", "copy1", "copy2"},
		WholeFileSplits: true,
		TaskSideInputs:  []string{"", "side1", ""},
		MapOnlyFactory:  &sumFactory{extras: []string{"copy0", "copy1", "copy2"}},
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !m.MapOnly {
		t.Error("metrics not flagged map-only")
	}
	if m.MapTasks != 3 {
		t.Errorf("MapTasks = %d, want 3 (one per whole file)", m.MapTasks)
	}
	if m.MapOutputBytes != 0 {
		t.Errorf("MapOutputBytes = %d, want 0 (nothing shuffles)", m.MapOutputBytes)
	}
	recs, err := e.DFS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(recs))
	for i, r := range recs {
		got[i] = string(r)
	}
	// Task order == input order; task 1 folds its side input into the sum.
	want := []string{"task0:21", "task1:130", "task2:0"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("out = %v, want %v", got, want)
	}
	// Extra-output routing: each task's records land in its own copy file.
	copy1, err := e.DFS().ReadAll("copy1")
	if err != nil {
		t.Fatal(err)
	}
	if len(copy1) != 2 || !bytes.Equal(copy1[0], []byte("10")) {
		t.Errorf("copy1 = %q", copy1)
	}
	if copy2, _ := e.DFS().ReadAll("copy2"); len(copy2) != 0 {
		t.Errorf("copy2 holds %d records, want 0", len(copy2))
	}
}

func TestWholeFileMapOnlyUnderFaults(t *testing.T) {
	// Retried attempts must see a fresh TaskMapper: the sums come out right
	// even when attempts are killed mid-task, and the job's commit discipline
	// keeps exactly one winner per task.
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
		SplitRecords:    4,
		DefaultReducers: 3,
		TaskMaxAttempts: 8,
		Faults:          &FaultPlan{Rate: 0.3, Seed: 7},
	})
	writeInts(t, e.DFS(), "in0", 1, 2, 3, 4, 5, 6, 7, 8)
	writeInts(t, e.DFS(), "in1", 10, 20, 30)
	job := &Job{
		Name:            "bucket-sum-faulty",
		Inputs:          []string{"in0", "in1"},
		Output:          "out",
		WholeFileSplits: true,
		MapOnlyFactory:  &sumFactory{},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs, err := e.DFS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "task0:36" || string(recs[1]) != "task1:60" {
		t.Errorf("out = %q, want [task0:36 task1:60]", recs)
	}
}

func TestJobValidateMapOnlyShapes(t *testing.T) {
	base := func() *Job {
		return &Job{Name: "j", Inputs: []string{"a"}, Output: "o"}
	}
	mo := MapOnlyFunc(func(string, []byte, Collector) error { return nil })

	j := base()
	j.MapOnly = mo
	j.MapOnlyFactory = &sumFactory{}
	if err := j.validate(); err == nil {
		t.Error("MapOnly+MapOnlyFactory accepted")
	}

	j = base()
	j.WholeFileSplits = true
	j.Mapper = MapperFunc(func(string, []byte, Emitter) error { return nil })
	j.Reducer = ReducerFunc(func([]byte, [][]byte, Collector) error { return nil })
	if err := j.validate(); err == nil {
		t.Error("WholeFileSplits on a shuffle job accepted")
	}

	j = base()
	j.MapOnly = mo
	j.TaskSideInputs = []string{"s"}
	if err := j.validate(); err == nil {
		t.Error("TaskSideInputs without factory accepted")
	}

	j = base()
	j.MapOnlyFactory = &sumFactory{}
	j.WholeFileSplits = true
	j.TaskSideInputs = []string{"s", "t"}
	if err := j.validate(); err == nil {
		t.Error("mismatched TaskSideInputs length accepted")
	}
}

func TestEngineConfigValidateRejections(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1})
	mo := MapOnlyFunc(func(string, []byte, Collector) error { return nil })
	for _, cfg := range []EngineConfig{
		{DefaultReducers: -1},
		{SplitRecords: -4},
	} {
		e := NewEngine(dfs, cfg)
		dfs.DeleteIfExists("in")
		dfs.WriteFile("in", [][]byte{[]byte("x")})
		_, err := e.Run(&Job{Name: "j", Inputs: []string{"in"}, Output: "out", MapOnly: mo})
		if err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
