package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ntga/internal/hdfs"
)

// sumMapper is a stateful per-attempt map-only operator: it keeps a running
// sum of its split's integer records, starting from the sum of its side
// input, emits "task:sum" after every record, and routes every record it saw
// into a declared extra output. It exists to exercise the factory,
// side-input and attempt-private state of whole-file map-only jobs: a stale
// sum from a rival attempt would shift every later record.
type sumMapper struct {
	task  int
	extra string
	sum   int
}

func (m *sumMapper) MapRecord(_ string, record []byte, out Collector) error {
	var v int
	if _, err := fmt.Sscanf(string(record), "%d", &v); err != nil {
		return err
	}
	m.sum += v
	if m.extra != "" {
		nc := out.(NamedCollector)
		if err := nc.CollectTo(m.extra, record); err != nil {
			return err
		}
	}
	return out.Collect([]byte(fmt.Sprintf("task%d:%d", m.task, m.sum)))
}

type sumFactory struct {
	extras []string
}

func (f *sumFactory) NewTask(task int, side [][]byte) (MapOnlyMapper, error) {
	extra := ""
	if task < len(f.extras) {
		extra = f.extras[task]
	}
	m := &sumMapper{task: task, extra: extra}
	for _, s := range side {
		var v int
		if _, err := fmt.Sscanf(string(s), "%d", &v); err != nil {
			return nil, err
		}
		m.sum += v
	}
	return m, nil
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
	got := strs(recs)
	// Task order == input order; task 1 starts its sum from its side input,
	// and the empty task 2 emits nothing.
	want := []string{"task0:1", "task0:3", "task0:6", "task0:10", "task0:15", "task0:21", "task1:110", "task1:130"}
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
	// Retried attempts must see a fresh operator: the sums come out right
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
	want := "task0:1 task0:3 task0:6 task0:10 task0:15 task0:21 task0:28 task0:36 task1:10 task1:30 task1:60"
	if got := strings.Join(strs(recs), " "); got != want {
		t.Errorf("out = %s, want %s", got, want)
	}
}

func strs(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// kvJob is a whole-file job with a reducer over "key=value" records, writing
// under dir: the reducer collects "key:v1,v2,…" with the values in the order
// it received them, routes each key to the extra output dir/keys, and counts
// its runs, as the mapper counts its pairs.
func kvJob(dir string, inputs ...string) *Job {
	keys := dir + "/keys"
	return &Job{
		Name:            dir,
		Inputs:          inputs,
		Output:          dir + "/out",
		ExtraOutputs:    []string{keys},
		WholeFileSplits: true,
		Mapper: MapperFunc(func(_ string, rec []byte, out Emitter) error {
			k, v, ok := bytes.Cut(rec, []byte("="))
			if !ok {
				return fmt.Errorf("malformed record %q", rec)
			}
			out.Inc("pairs", 1)
			return out.Emit(k, v)
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			rec := append(append([]byte(nil), key...), ':')
			for n := 0; ; n++ {
				v, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if n > 0 {
					rec = append(rec, ',')
				}
				rec = append(rec, v...)
			}
			out.Inc("runs", 1)
			if err := out.(NamedCollector).CollectTo(keys, key); err != nil {
				return err
			}
			return out.Collect(rec)
		}),
	}
}

func writeStrs(t *testing.T, dfs *hdfs.DFS, name string, recs ...string) {
	t.Helper()
	b := make([][]byte, len(recs))
	for i, r := range recs {
		b[i] = []byte(r)
	}
	if err := dfs.WriteFile(name, b); err != nil {
		t.Fatal(err)
	}
}

// TestWholeFileReduceInPlace covers a whole-file job with a reducer: each
// task reduces its file's key runs in place, with nothing shuffled.
func TestWholeFileReduceInPlace(t *testing.T) {
	t.Run("each task writes what a shuffle over its file writes", func(t *testing.T) {
		e := newTestEngine(t, hdfs.Config{})
		files := map[string][]string{
			"kv0": {"a=1", "a=2", "b=1", "c=3", "c=3", "c=4"}, // a duplicate value
			"kv1": {"b=9", "d=1", "d=2", "d=2", "e=0"},        // > SplitRecords: one task
			"kv2": {},                                         // an empty bucket
			"kv3": {"a=7"},
		}
		names := []string{"kv0", "kv1", "kv2", "kv3"}
		for _, f := range names {
			writeStrs(t, e.DFS(), f, files[f]...)
		}
		job := kvJob("inplace", names...)
		m, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if !m.MapOnly || m.MapTasks != len(names) || m.ReduceTasks != 0 || m.MapOutputBytes != 0 {
			t.Errorf("metrics: map-only %v, %d map tasks, %d reduce tasks, %d shuffle bytes; want true, %d, 0, 0",
				m.MapOnly, m.MapTasks, m.ReduceTasks, m.MapOutputBytes, len(names))
		}
		var wantOut, wantKeys []string
		var wantCounters Counters
		for i, f := range names {
			// The same job with a shuffle, over this one file.
			sh := kvJob("shuffle-"+f, f)
			sh.WholeFileSplits, sh.NumReducers = false, 1
			sm, err := e.Run(sh)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := e.DFS().ReadAll(sh.Output)
			keys, _ := e.DFS().ReadAll(sh.ExtraOutputs[0])
			wantOut, wantKeys = append(wantOut, strs(out)...), append(wantKeys, strs(keys)...)
			wantCounters.Add(sm.Counters)

			recs, _ := e.DFS().ReadAll(f)
			col := NewMemCollector(job)
			if _, err := RunMapOnlyTask(job, i, f, nil, NewSliceSource(recs), col, TaskHooks{}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(col.Outputs[0], out) || !reflect.DeepEqual(col.Outputs[1], keys) {
				t.Errorf("task %d (%s) wrote %q + %q, the shuffle %q + %q", i, f, col.Outputs[0], col.Outputs[1], out, keys)
			}
			if !reflect.DeepEqual(col.Counters, sm.Counters) {
				t.Errorf("task %d (%s) counted %v, the shuffle %v", i, f, col.Counters, sm.Counters)
			}
		}
		out, _ := e.DFS().ReadAll(job.Output)
		keys, _ := e.DFS().ReadAll(job.ExtraOutputs[0])
		if !reflect.DeepEqual(strs(out), wantOut) || !reflect.DeepEqual(strs(keys), wantKeys) {
			t.Errorf("job wrote %q + %q, want %q + %q", out, keys, wantOut, wantKeys)
		}
		if !reflect.DeepEqual(m.Counters, wantCounters) {
			t.Errorf("job counted %v, want %v", m.Counters, wantCounters)
		}
	})

	t.Run("a run with out-of-order values reaches the reducer sorted", func(t *testing.T) {
		e := newTestEngine(t, hdfs.Config{})
		writeStrs(t, e.DFS(), "kv", "a=3", "a=1", "a=2", "a=1", "b=x", "c=2", "c=10")
		job := kvJob("unsorted", "kv")
		if _, err := e.Run(job); err != nil {
			t.Fatal(err)
		}
		out, _ := e.DFS().ReadAll(job.Output)
		if got, want := strings.Join(strs(out), " "), "a:1,1,2,3 b:x c:10,2"; got != want {
			t.Errorf("out = %s, want %s", got, want)
		}
	})

	t.Run("a key that goes backwards fails the attempt", func(t *testing.T) {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{TaskMaxAttempts: 3})
		writeStrs(t, e.DFS(), "ok", "a=1", "b=1")
		writeStrs(t, e.DFS(), "bad", "a=1", "c=1", "b=1")
		job := kvJob("backwards", "ok", "bad")
		m, err := e.Run(job)
		if err == nil {
			t.Fatal("a backwards key was accepted")
		}
		for _, part := range []string{"job backwards", "not key-ordered", "map task 1 (bad)"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("error %q does not name %q", err, part)
			}
		}
		if m.TaskRetries != 2 {
			t.Errorf("%d retries, want 2: every attempt of the task fails", m.TaskRetries)
		}
		if e.DFS().Exists(job.Output) {
			t.Error("a failed job left its output")
		}
	})

	t.Run("attempts start fresh under faults", func(t *testing.T) {
		// Every attempt buffers its own runs: killed and retried attempts
		// leave nothing behind, so the output is the fault-free output.
		load := func(d *hdfs.DFS) {
			for f := 0; f < 3; f++ {
				var recs []string
				for k := 0; k < 60; k++ {
					for v := 0; v < 1+(k*7+f)%5; v++ {
						recs = append(recs, fmt.Sprintf("k%d%03d=%d", f, k, (v*3+k)%5))
					}
				}
				writeStrs(t, d, fmt.Sprintf("kv%d", f), recs...)
			}
		}
		run := func(cfg EngineConfig) ([]string, JobMetrics) {
			d := hdfs.New(hdfs.Config{Nodes: 4})
			load(d)
			job := kvJob("faulty", "kv0", "kv1", "kv2")
			m, err := NewEngine(d, cfg).Run(job)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := d.ReadAll(job.Output)
			keys, _ := d.ReadAll(job.ExtraOutputs[0])
			return append(strs(out), strs(keys)...), m
		}
		want, wm := run(EngineConfig{})
		got, gm := run(EngineConfig{TaskMaxAttempts: 10, Faults: &FaultPlan{Rate: 0.15, Seed: 1}})
		if gm.TaskRetries == 0 {
			t.Fatal("no attempt failed: the fault plan missed the test")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("output under faults differs from the fault-free output")
		}
		if !reflect.DeepEqual(gm.Counters, wm.Counters) {
			t.Errorf("counters under faults %v, fault-free %v", gm.Counters, wm.Counters)
		}
	})
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

	// A whole-file job with a reducer reduces its key runs in place.
	j = base()
	j.WholeFileSplits = true
	j.Mapper = MapperFunc(func(string, []byte, Emitter) error { return nil })
	j.Reducer = ReducerFunc(func([]byte, [][]byte, Collector) error { return nil })
	if err := j.validate(); err != nil {
		t.Errorf("WholeFileSplits on a job with a reducer rejected: %v", err)
	}
	if !j.ShuffleFree() {
		t.Error("WholeFileSplits on a job with a reducer is not shuffle-free")
	}
	j.Reducer = nil
	if err := j.validate(); err == nil {
		t.Error("WholeFileSplits job with a mapper and no reducer accepted")
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
