package mapreduce

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ntga/internal/hdfs"
)

func TestCounters(t *testing.T) {
	var c Counters // the zero set is usable
	c.Inc("a", 2)
	c.Inc("a", 3)
	c.Inc("b", 1)
	c.Add(nil)
	var total Counters
	total.Add(c)
	total.Add(Counters{"a": 1, "c": 4})
	if want := (Counters{"a": 5, "b": 1}); !reflect.DeepEqual(c, want) {
		t.Errorf("c = %v, want %v", c, want)
	}
	if want := (Counters{"a": 6, "b": 1, "c": 4}); !reflect.DeepEqual(total, want) {
		t.Errorf("total = %v, want %v", total, want)
	}
	var none Counters
	none.Add(nil)
	if none != nil {
		t.Errorf("adding nothing made a set: %v", none)
	}
}

// countedWordCount is wordCountJob with both operators counting what they
// see: the mapper its lines and words, the reducer its keys.
func countedWordCount(input, output string) *Job {
	j := wordCountJob(input, output)
	mapper, reducer := j.Mapper, j.Reducer
	j.Mapper = MapperFunc(func(in string, rec []byte, out Emitter) error {
		out.Inc("lines", 1)
		out.Inc("words", int64(len(strings.Fields(string(rec)))))
		return mapper.Map(in, rec, out)
	})
	j.Reducer = ReducerFunc(func(key []byte, values [][]byte, out Collector) error {
		out.Inc("keys", 1)
		return reducer.Reduce(key, values, out)
	})
	return j
}

// countedCopy is a map-only job that copies its input, counting records.
func countedCopy(input, output string) *Job {
	return &Job{
		Name: "copy", Inputs: []string{input}, Output: output,
		MapOnly: MapOnlyFunc(func(_ string, rec []byte, out Collector) error {
			out.Inc("records", 1)
			return out.Collect(rec)
		}),
	}
}

// TestAttemptCountersCommitWithWinner: a job's counters are its tasks'
// winning attempts' counts, whatever else ran. Under mid-phase faults, node
// kills that force map re-execution, and speculative backups, with tasks
// committing concurrently, JobMetrics.Counters must equal the fault-free
// run's, which are the exact counts of the input.
func TestAttemptCountersCommitWithWinner(t *testing.T) {
	lines := chaosLines(40) // "w<j%7> w<j%13> w<j%3>": 13 distinct words
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for _, tc := range []struct {
		job  func(input, output string) *Job
		want Counters
	}{
		{countedWordCount, Counters{"lines": 40, "words": 120, "keys": 13}},
		{countedCopy, Counters{"records": 40}},
	} {
		name := tc.job("in", "out").Name
		run := func(cfg EngineConfig) JobMetrics {
			t.Helper()
			e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), cfg)
			if err := e.DFS().WriteFile("in", lines); err != nil {
				t.Fatal(err)
			}
			m, err := e.Run(tc.job("in", "out"))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertNoResidue(t, e)
			return m
		}
		// A 16-byte sort buffer spills every map task, so a node kill loses
		// map output and forces its re-execution.
		base := EngineConfig{SplitRecords: 4, DefaultReducers: 5, SortBufferBytes: 16,
			MergeFactor: 2, MapParallelism: 4, ReduceParallelism: 4}
		if got := run(base).Counters; !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s fault-free: counters = %v, want %v", name, got, tc.want)
		}
		var retries, recoveries, killed int64
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := base
			cfg.TaskMaxAttempts, cfg.Speculation = 12, true
			cfg.SpeculationMinRuntime = 100 * time.Microsecond // straggling attempts get backups
			cfg.Faults = &FaultPlan{Rate: 0.04, Seed: seed, NodeFailureRate: 0.5, MaxNodeKills: 1,
				StragglerRate: 0.1, StragglerDelay: 2 * time.Millisecond}
			m := run(cfg)
			if !reflect.DeepEqual(m.Counters, tc.want) {
				t.Errorf("%s seed %d: counters = %v, want %v (retries %d, map recoveries %d, killed %d)",
					name, seed, m.Counters, tc.want, m.TaskRetries, m.MapOutputRecoveries, m.KilledAttempts)
			}
			retries += m.TaskRetries
			recoveries += m.MapOutputRecoveries
			killed += m.KilledAttempts
		}
		if retries == 0 || killed == 0 {
			t.Errorf("%s: %d retries, %d killed attempts; the fault plan is not firing", name, retries, killed)
		}
		if name == "wordcount" && !testing.Short() && recoveries == 0 {
			t.Errorf("%s: no seed re-executed a map task", name)
		}
		t.Logf("%s: retries=%d mapRecoveries=%d killedAttempts=%d", name, retries, recoveries, killed)
	}
}

// TestAttemptCountersWorkflowTotal: a workflow's counters are the sum of its
// jobs', and a job that counts nothing reports none.
func TestAttemptCountersWorkflowTotal(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", chaosLines(10)); err != nil {
		t.Fatal(err)
	}
	silent := wordCountJob("in", "silent")
	wf, err := e.RunWorkflow([]Stage{{countedWordCount("in", "wc"), countedCopy("in", "copy")}, {silent}})
	if err != nil {
		t.Fatal(err)
	}
	if c := wf.Jobs[2].Counters; c != nil {
		t.Errorf("a job without counting operators reports %v", c)
	}
	want := Counters{"lines": 10, "words": 30, "keys": 10, "records": 10}
	if got := wf.TotalCounters(); !reflect.DeepEqual(got, want) {
		t.Errorf("TotalCounters = %v, want %v", got, want)
	}
}
