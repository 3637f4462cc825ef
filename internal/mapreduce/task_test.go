package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ntga/internal/hdfs"
)

func TestPlanSplits(t *testing.T) {
	d := hdfs.New(hdfs.Config{Nodes: 1})
	writeInts(t, d, "ten", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	writeInts(t, d, "four", 0, 1, 2, 3)
	writeInts(t, d, "empty")
	for _, tc := range []struct {
		name      string
		inputs    []string
		wholeFile bool
		want      []Split
		records   int64
	}{
		{"last split is short", []string{"ten"}, false,
			[]Split{{"ten", 0, 4}, {"ten", 4, 4}, {"ten", 8, 2}}, 10},
		{"several inputs, exact multiple", []string{"four", "ten"}, false,
			[]Split{{"four", 0, 4}, {"ten", 0, 4}, {"ten", 4, 4}, {"ten", 8, 2}}, 14},
		{"zero-record input keeps one empty split", []string{"empty", "four"}, false,
			[]Split{{"empty", 0, 0}, {"four", 0, 4}}, 4},
		{"whole files: task index == input index, empty bucket included", []string{"ten", "empty", "four"}, true,
			[]Split{{"ten", 0, 10}, {"empty", 0, 0}, {"four", 0, 4}}, 14},
	} {
		var m JobMetrics
		got, err := PlanSplits(d, &Job{Inputs: tc.inputs, WholeFileSplits: tc.wholeFile}, 4, &m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: splits = %v, want %v", tc.name, got, tc.want)
		}
		if m.MapTasks != len(tc.want) || m.MapInputRecords != tc.records || m.MapInputBytes != tc.records {
			t.Errorf("%s: metrics = %d tasks, %d records, %d bytes; want %d, %d, %d", tc.name,
				m.MapTasks, m.MapInputRecords, m.MapInputBytes, len(tc.want), tc.records, tc.records)
		}
	}
	if _, err := PlanSplits(d, &Job{Inputs: []string{"missing"}}, 4, &JobMetrics{}); !errors.Is(err, hdfs.ErrNotFound) {
		t.Errorf("missing input: err = %v, want ErrNotFound", err)
	}
}

// workerStyle runs the job the way a cluster worker does — splits read in
// bulk into slice sources, output buffered in MemCollectors, no hooks — and
// returns the concatenated records of every output base plus the job
// metrics the coordinator would fold from the task reports.
func workerStyle(d *hdfs.DFS, job *Job, splitRecords, nReducers int) (map[string][]string, JobMetrics, error) {
	var m JobMetrics
	splits, err := PlanSplits(d, job, splitRecords, &m)
	if err != nil {
		return nil, m, err
	}
	outs := make(map[string][]string)
	gather := func(col *MemCollector) {
		m.Counters.Add(col.Counters)
		for b, base := range job.OutputBases() {
			for _, rec := range col.Outputs[b] {
				outs[base] = append(outs[base], string(rec))
			}
		}
	}
	maps := make([][][]KV, len(splits))
	for i, sp := range splits {
		recs, err := d.ReadRange(sp.Input, sp.Off, sp.N)
		if err != nil {
			return nil, m, err
		}
		if !job.ShuffleFree() {
			mo, err := RunMapTask(job, i, sp.Input, nReducers, NewSliceSource(recs), TaskHooks{})
			if err != nil {
				return nil, m, err
			}
			maps[i] = mo.Parts
			m.MapOutputRecords += mo.Records
			m.Counters.Add(mo.Counters)
			continue
		}
		var side [][]byte
		if i < len(job.TaskSideInputs) && job.TaskSideInputs[i] != "" {
			if side, err = d.ReadAll(job.TaskSideInputs[i]); err != nil {
				return nil, m, err
			}
		}
		col := NewMemCollector(job)
		if _, err := RunMapOnlyTask(job, i, sp.Input, side, NewSliceSource(recs), col, TaskHooks{}); err != nil {
			return nil, m, err
		}
		gather(col)
	}
	var reduces []ReduceStats
	if !job.ShuffleFree() {
		reduces = make([]ReduceStats, nReducers)
		for p := range reduces {
			segs := make([][]KV, len(maps))
			for t := range maps {
				segs[t] = maps[t][p]
			}
			col := NewMemCollector(job)
			if reduces[p], err = RunReduceTask(job, p, segs, col, TaskHooks{}); err != nil {
				return nil, m, err
			}
			gather(col)
		}
	}
	m.FoldTaskStats(nil, nil, reduces)
	return outs, m, nil
}

// TestTaskBodyParity runs the same jobs through the local engine and through
// the worker-style call of the shared task bodies and requires the same
// output bytes, the same reduce-input profile, and the same error text.
func TestTaskBodyParity(t *testing.T) {
	const splitRecords, nReducers = 4, 3
	shuffle := func() *Job {
		// A combiner, an extra output, a reducer that refuses one key, and
		// operators that count.
		j := countingJob("words", "out")
		j.ExtraOutputs = []string{"singles"}
		mapper, inner := j.Mapper, j.Reducer
		j.Mapper = MapperFunc(func(in string, rec []byte, out Emitter) error {
			out.Inc("lines", 1)
			return mapper.Map(in, rec, out)
		})
		j.Reducer = ReducerFunc(func(key []byte, values [][]byte, out Collector) error {
			if string(key) == "poison" {
				return errors.New("refused key")
			}
			out.Inc("keys", 1)
			if len(values) == 1 && string(values[0]) == "\x01" {
				if err := out.(NamedCollector).CollectTo("singles", key); err != nil {
					return err
				}
			}
			return inner.Reduce(key, values, out)
		})
		return j
	}
	mapOnly := func() *Job {
		// A per-task factory with a side input, extra outputs and a Flush.
		return &Job{
			Name:            "bucket-sum",
			Inputs:          []string{"in0", "in1", "in2"},
			Output:          "out",
			ExtraOutputs:    []string{"copy0", "copy1", "copy2"},
			WholeFileSplits: true,
			TaskSideInputs:  []string{"", "side1", ""},
			MapOnlyFactory:  &sumFactory{extras: []string{"copy0", "copy1", "copy2"}},
		}
	}
	inPlace := func() *Job {
		// A whole-file job reducing its key runs in place.
		return kvJob("kv", "kv0", "kv1", "kv2")
	}
	load := func(poison bool) *hdfs.DFS {
		d := hdfs.New(hdfs.Config{Nodes: 4})
		lines := wordLines(30)
		if poison {
			lines = append(lines, []byte("poison"))
		}
		if err := d.WriteFile("words", lines); err != nil {
			t.Fatal(err)
		}
		writeInts(t, d, "in0", 1, 2, 3, 4, 5, 6)
		writeInts(t, d, "in2")
		writeInts(t, d, "side1", 100)
		writeStrs(t, d, "kv0", "a=2", "a=1", "b=1")
		writeStrs(t, d, "kv2", "c=1", "d=1", "d=0")
		if poison {
			if err := d.WriteFile("in1", [][]byte{[]byte("10"), []byte("x")}); err != nil {
				t.Fatal(err)
			}
		} else {
			writeInts(t, d, "in1", 10, 20)
		}
		if poison {
			writeStrs(t, d, "kv1", "b=1", "e=1", "c=1") // a key going backwards
		} else {
			writeStrs(t, d, "kv1", "b=1", "b=2", "e=1")
		}
		return d
	}
	for _, tc := range []struct {
		name    string
		job     func() *Job
		errPart string // the failing task's index, as both substrates must name it
	}{
		{"shuffle", shuffle, "reduce partition "},
		{"map-only", mapOnly, "map task 1 (in1)"},
		{"in-place reduce", inPlace, "map task 1 (kv1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := load(false)
			local := NewEngine(d, EngineConfig{SplitRecords: splitRecords, DefaultReducers: nReducers})
			lm, err := local.Run(tc.job())
			if err != nil {
				t.Fatal(err)
			}
			wantOuts := make(map[string][]string)
			for _, base := range tc.job().OutputBases() {
				recs, err := d.ReadAll(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					wantOuts[base] = append(wantOuts[base], string(rec))
				}
				d.DeleteIfExists(base)
			}
			if tc.name == "shuffle" && len(wantOuts["singles"]) == 0 {
				t.Fatal("no record reached the extra output — test premise broken")
			}
			outs, wm, err := workerStyle(d, tc.job(), splitRecords, nReducers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(outs, wantOuts) {
				t.Errorf("worker-style outputs differ from local:\n got %v\nwant %v", outs, wantOuts)
			}
			got := fmt.Sprint(wm.MapTasks, wm.ReduceTasks, wm.MapOutputRecords, wm.ReduceInputGroups,
				wm.MaxReducePartitionRecords, wm.ReduceSkew, wm.ReduceKeySkew, wm.ReduceByteSkew, wm.Counters)
			want := fmt.Sprint(lm.MapTasks, lm.ReduceTasks, lm.MapOutputRecords, lm.ReduceInputGroups,
				lm.MaxReducePartitionRecords, lm.ReduceSkew, lm.ReduceKeySkew, lm.ReduceByteSkew, lm.Counters)
			if got != want {
				t.Errorf("worker-style task profile = %s, local = %s", got, want)
			}

			d = load(true)
			_, lerr := NewEngine(d, EngineConfig{SplitRecords: splitRecords, DefaultReducers: nReducers}).Run(tc.job())
			_, _, werr := workerStyle(d, tc.job(), splitRecords, nReducers)
			if lerr == nil || werr == nil {
				t.Fatalf("poisoned input accepted: local %v, worker-style %v", lerr, werr)
			}
			if !strings.Contains(werr.Error(), tc.errPart) || !strings.HasSuffix(lerr.Error(), werr.Error()) {
				t.Errorf("error text differs:\n local %q\nworker %q (want %q in both)", lerr, werr, tc.errPart)
			}
		})
	}
}
