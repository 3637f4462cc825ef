// Package mapreduce implements the MapReduce execution engine that all
// query engines in this repository compile to. It reproduces the cost
// structure of Hadoop MapReduce that the paper's evaluation depends on:
//
//   - a job reads its inputs from the simulated DFS (full scans are visible
//     in the DFS read counters);
//   - map output is partitioned by key, sorted, and "shuffled" — the total
//     map-output bytes are the shuffle cost the lazy β-unnesting strategies
//     target;
//   - reduce output is materialized back to the DFS between cycles (write
//     counters, replication amplification, disk-full failures);
//   - a workflow is a sequence of stages; jobs within a stage may run
//     concurrently (Pig-style independent-job parallelism).
//
// Map and reduce tasks execute in parallel on goroutine pools, so wall-clock
// measurements of a workflow reflect genuine parallel dataflow execution.
//
// # Bounded-memory shuffle
//
// EngineConfig.SortBufferBytes bounds each map task's in-memory sort buffer
// (Hadoop's io.sort.mb). When the buffered map output for a task exceeds the
// budget, the buffer is sorted, pre-folded by the job's optional Combiner,
// and spilled as a sorted codec-framed run to node-local disk; at reduce
// time the runs of each partition are merge-sorted MergeFactor at a time
// (multi-pass when there are many runs — see JobMetrics.MergePasses).
// Reducers that implement StreamReducer consume each group's values through
// a ValueIter fed straight from the merge, so neither the map output nor a
// reduce group need ever be resident in memory; slice Reducers are adapted
// transparently. Reduce output streams into the DFS writer record by record,
// which means hdfs.ErrDiskFull can surface mid-reduce, exactly where a real
// cluster hits it. A zero budget (the default) disables spilling; results
// are byte-identical either way.
package mapreduce

import (
	"fmt"
	"sort"
	"sync"
)

// Emitter receives key/value pairs from map tasks.
type Emitter interface {
	// Emit hands one intermediate pair to the shuffle. The engine copies
	// both slices; callers may reuse their buffers.
	Emit(key, value []byte) error
}

// Collector receives final output records from reduce tasks (or from map
// tasks in a map-only job).
type Collector interface {
	// Collect appends one record to the job output. The engine copies the
	// slice; callers may reuse their buffers.
	Collect(record []byte) error
}

// NamedCollector is the Hadoop MultipleOutputs facility: reduce (or
// map-only) functions of a job that declares ExtraOutputs can route records
// to those outputs by name. Collectors passed by the engine always
// implement it.
type NamedCollector interface {
	Collector
	// CollectTo appends one record to the named extra output, which must
	// be listed in the job's ExtraOutputs.
	CollectTo(output string, record []byte) error
}

// Mapper transforms one input record into zero or more key/value pairs.
// The input file name is passed so that one mapper can serve several tagged
// inputs (relational join mappers need to know which side a record is from).
type Mapper interface {
	Map(input string, record []byte, out Emitter) error
}

// MapOnlyMapper is implemented by mappers used in map-only jobs; output
// records bypass the shuffle entirely.
type MapOnlyMapper interface {
	MapRecord(input string, record []byte, out Collector) error
}

// Reducer folds all values sharing one key into zero or more output records.
// It is the fully-materialized form: the engine buffers every value of the
// group in memory before the call. Large groups should implement
// StreamReducer instead.
type Reducer interface {
	Reduce(key []byte, values [][]byte, out Collector) error
}

// ValueIter streams the values of one reduce group in sorted order. Next
// returns ok=false once the group is exhausted. Returned slices alias
// engine-owned storage that stays valid until the job completes; they must
// not be mutated.
type ValueIter interface {
	Next() (value []byte, ok bool, err error)
}

// StreamReducer is the streaming form of Reducer: values arrive through an
// iterator instead of a materialized slice, so a group larger than memory
// can be folded incrementally. The engine feeds it from a merge of sorted
// in-memory segments and on-disk spill runs; values within a group arrive
// in nondecreasing byte order (the engine's deterministic shuffle order).
type StreamReducer interface {
	Reduce(key []byte, values ValueIter, out Collector) error
}

// Combiner pre-folds the values of one key on the map side, before pairs
// are spilled or shuffled (Hadoop's combiner). It must be associative and
// commutative: the engine applies it to arbitrary sub-groups — at every
// spill and again on the final in-memory segment — and the reducer then
// sees the combined values. The returned value slices become engine-owned.
type Combiner interface {
	Combine(key []byte, values [][]byte) ([][]byte, error)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(input string, record []byte, out Emitter) error

// Map implements Mapper.
func (f MapperFunc) Map(input string, record []byte, out Emitter) error {
	return f(input, record, out)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, values [][]byte, out Collector) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values [][]byte, out Collector) error {
	return f(key, values, out)
}

// StreamReducerFunc adapts a function to the StreamReducer interface.
type StreamReducerFunc func(key []byte, values ValueIter, out Collector) error

// Reduce implements StreamReducer.
func (f StreamReducerFunc) Reduce(key []byte, values ValueIter, out Collector) error {
	return f(key, values, out)
}

// CombinerFunc adapts a function to the Combiner interface.
type CombinerFunc func(key []byte, values [][]byte) ([][]byte, error)

// Combine implements Combiner.
func (f CombinerFunc) Combine(key []byte, values [][]byte) ([][]byte, error) {
	return f(key, values)
}

// TaskMapper is a per-task map-only operator with end-of-input state: after
// the task's whole split has streamed through MapRecord, Flush is called
// once so operators that accumulate runs (e.g. building a triplegroup from
// subject-contiguous bucket records) can emit their tail. Each task attempt
// gets a fresh TaskMapper, so retried or speculated attempts never see a
// rival attempt's state.
type TaskMapper interface {
	MapOnlyMapper
	// Flush emits whatever the mapper is still holding after the last
	// record of the split.
	Flush(out Collector) error
}

// TaskMapperFactory builds the TaskMapper for one map-only task attempt.
// The side argument carries the records of the task's side input
// (Job.TaskSideInputs), already fetched by the engine; nil when the task
// has none.
type TaskMapperFactory interface {
	NewTask(task int, side [][]byte) (TaskMapper, error)
}

// MapOnlyFunc adapts a function to the MapOnlyMapper interface.
type MapOnlyFunc func(input string, record []byte, out Collector) error

// MapRecord implements MapOnlyMapper.
func (f MapOnlyFunc) MapRecord(input string, record []byte, out Collector) error {
	return f(input, record, out)
}

// Partitioner assigns an intermediate key to one of n reduce partitions.
type Partitioner func(key []byte, n int) int

// HashPartitioner is Hadoop's default: hash(key) mod n, the hash being 32-bit
// FNV-1a (hash/fnv's New32a, inlined so that no hasher is allocated per pair).
func HashPartitioner(key []byte, n int) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(n))
}

// Job describes one MapReduce cycle.
type Job struct {
	// Name identifies the job in metrics and error messages.
	Name string
	// Inputs are DFS file names scanned by the map phase. A job with
	// several inputs models a shared scan / multi-relation map.
	Inputs []string
	// Output is the DFS file the job writes.
	Output string
	// ExtraOutputs lists additional DFS files the job may write via
	// NamedCollector.CollectTo (Hadoop's MultipleOutputs). Every extra
	// output file is created even if no record is routed to it.
	ExtraOutputs []string
	// Mapper runs in the map phase (ignored if MapOnly is set).
	Mapper Mapper
	// MapOnly, when non-nil, makes this a map-only job (no shuffle, no
	// reduce); Mapper and Reducer are ignored.
	MapOnly MapOnlyMapper
	// MapOnlyFactory is the per-task form of MapOnly for jobs whose tasks
	// need attempt-private state, a Flush at end of split, or a side input:
	// the engine calls NewTask once per task attempt. Exclusive with
	// MapOnly; implies a map-only job.
	MapOnlyFactory TaskMapperFactory
	// WholeFileSplits pins map-task granularity to whole input files: task
	// i scans exactly Inputs[i], never a sub-range. This is how
	// co-partitioned jobs keep task index == bucket index (the no-shuffle
	// star-join path reads bucket i as task i).
	WholeFileSplits bool
	// TaskSideInputs, indexed like Inputs under WholeFileSplits, names a
	// DFS file whose full contents are handed to task i's MapOnlyFactory
	// as the side argument ("" = no side input). The cascading map-side
	// join routes the previous cycle's per-bucket join-left records here.
	TaskSideInputs []string
	// Reducer runs in the reduce phase (exclusive with StreamReducer).
	Reducer Reducer
	// StreamReducer runs in the reduce phase consuming values through an
	// iterator; exactly one of Reducer and StreamReducer must be set for a
	// job with a reduce phase.
	StreamReducer StreamReducer
	// Combiner, when non-nil, pre-folds map output per key at spill time
	// and on each map task's final in-memory segment. It must be
	// associative and commutative. Ignored for map-only jobs.
	Combiner Combiner
	// NumReducers is the reduce-task parallelism; 0 defaults to the
	// engine's configured reducer count.
	NumReducers int
	// Partitioner routes keys to reducers; nil defaults to HashPartitioner.
	Partitioner Partitioner
}

func (j *Job) validate() error {
	if j.Name == "" {
		return fmt.Errorf("mapreduce: job has no name")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("mapreduce: job %s has no inputs", j.Name)
	}
	if j.Output == "" {
		return fmt.Errorf("mapreduce: job %s has no output", j.Name)
	}
	seen := map[string]bool{j.Output: true}
	for _, eo := range j.ExtraOutputs {
		if eo == "" {
			return fmt.Errorf("mapreduce: job %s has an empty extra output name", j.Name)
		}
		if seen[eo] {
			return fmt.Errorf("mapreduce: job %s declares output %q twice", j.Name, eo)
		}
		seen[eo] = true
	}
	if j.MapOnly != nil && j.MapOnlyFactory != nil {
		return fmt.Errorf("mapreduce: job %s sets both MapOnly and MapOnlyFactory", j.Name)
	}
	if j.MapOnly == nil && j.MapOnlyFactory == nil {
		if j.Mapper == nil {
			return fmt.Errorf("mapreduce: job %s has no mapper", j.Name)
		}
		if j.Reducer == nil && j.StreamReducer == nil {
			return fmt.Errorf("mapreduce: job %s has no reducer", j.Name)
		}
		if j.Reducer != nil && j.StreamReducer != nil {
			return fmt.Errorf("mapreduce: job %s sets both Reducer and StreamReducer", j.Name)
		}
	}
	if len(j.TaskSideInputs) > 0 {
		if j.MapOnlyFactory == nil {
			return fmt.Errorf("mapreduce: job %s sets TaskSideInputs without a MapOnlyFactory", j.Name)
		}
		if !j.WholeFileSplits {
			return fmt.Errorf("mapreduce: job %s sets TaskSideInputs without WholeFileSplits", j.Name)
		}
		if len(j.TaskSideInputs) != len(j.Inputs) {
			return fmt.Errorf("mapreduce: job %s has %d side inputs for %d inputs",
				j.Name, len(j.TaskSideInputs), len(j.Inputs))
		}
	}
	if j.WholeFileSplits && j.MapOnly == nil && j.MapOnlyFactory == nil {
		return fmt.Errorf("mapreduce: job %s sets WholeFileSplits on a shuffle job", j.Name)
	}
	return nil
}

// mapOnly reports whether the job elides the shuffle and reduce phases.
func (j *Job) mapOnly() bool { return j.MapOnly != nil || j.MapOnlyFactory != nil }

// OutputBases lists the job's output files in part order — the main output
// followed by the declared extra outputs — matching the Outputs slots of a
// MemCollector and the part files CommitParts splices.
func (j *Job) OutputBases() []string {
	return append([]string{j.Output}, j.ExtraOutputs...)
}

// taskMapper builds the map-only operator for one task attempt: the
// factory's per-attempt TaskMapper, or the shared MapOnly wrapped with a
// no-op Flush.
func (j *Job) taskMapper(task int, side [][]byte) (TaskMapper, error) {
	if j.MapOnlyFactory != nil {
		return j.MapOnlyFactory.NewTask(task, side)
	}
	return noFlushMapper{j.MapOnly}, nil
}

type noFlushMapper struct{ MapOnlyMapper }

func (noFlushMapper) Flush(Collector) error { return nil }

// KV is one intermediate key/value pair, in memory and on the wire alike:
// committed map output crosses the cluster transport as ordered []KV
// segments, one per reduce partition.
type KV struct {
	Key, Value []byte
}

// sortKVs orders pairs by key then value, giving deterministic reduce input
// regardless of map-task scheduling.
func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool {
		c := compareBytes(kvs[i].Key, kvs[j].Key)
		if c != 0 {
			return c < 0
		}
		return compareBytes(kvs[i].Value, kvs[j].Value) < 0
	})
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Counters is a concurrency-safe named-counter set, available to operators
// for domain-specific accounting (e.g. triplegroups unnested).
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of the named counter (zero if never incremented).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
