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
//     counters, replication amplification, disk-full failures); a job with
//     a Sink hands its main output to the caller instead, which is how a
//     query's last cycle returns its rows;
//   - a workflow is a sequence of stages; jobs within a stage may run
//     concurrently (Pig-style independent-job parallelism).
//
// Map and reduce tasks execute in parallel, each under a slot leased from a
// SlotPool (or, without one, on one of its phase's GOMAXPROCS goroutines), so
// wall-clock measurements of a workflow reflect genuine parallel dataflow
// execution.
//
// # Bounded-memory shuffle
//
// EngineConfig.SortBufferBytes bounds each map task's in-memory sort buffer
// (Hadoop's io.sort.mb). When the buffered map output for a task exceeds the
// budget, the buffer is sorted, pre-folded by the job's optional Combiner,
// and spilled as a sorted codec-framed run to node-local disk; at reduce
// time the runs of each partition are merge-sorted MergeFactor at a time
// (multi-pass when there are many runs — see JobMetrics.MergePasses). The
// order is (key, value) by bytes.Compare. Both the sort and the merge decide
// it on 8-byte key prefixes kept in memory beside the pairs, and read the
// pairs' bytes only when two prefixes tie: the sort radix-sorts the
// pointer-free index entries of the pairs framed in one buffer, and never
// moves a pair. The prefixes are never spilled, shuffled or charged to the
// budget, which counts key and value bytes only. Sorted map output is a
// Segment, the one format of sealed map output, spill runs and the
// cluster's shuffle.
// A StreamReducer consumes each group's values through a ValueIter fed
// straight from the merge, so neither the map output nor a reduce group need
// ever be resident in memory. Reduce output streams into the DFS writer
// record by record, which means hdfs.ErrDiskFull can surface mid-reduce,
// exactly where a real cluster hits it. A zero budget (the default) disables spilling; results
// are byte-identical either way.
package mapreduce

import "fmt"

// Counters is one task attempt's named counts: operator-defined accounting
// such as triplegroups unnested. An operator adds to them through the
// Emitter or Collector it is handed (Counter). The engine folds the winning
// attempt's set into JobMetrics.Counters where it folds that attempt's
// records and bytes, so a task counts exactly once, as in Hadoop: a failed,
// killed or losing attempt counts nothing, and a re-executed map task
// replaces its counts rather than adding to them.
type Counters map[string]int64

// Inc adds delta to the named counter, making the set on first use.
func (c *Counters) Inc(name string, delta int64) {
	if *c == nil {
		*c = make(Counters)
	}
	(*c)[name] += delta
}

// Add folds every counter of o into c.
func (c *Counters) Add(o Counters) {
	for name, v := range o {
		c.Inc(name, v)
	}
}

// Counter adds to the counters of the task attempt it belongs to. Every
// Emitter and Collector is one.
type Counter interface {
	Inc(name string, delta int64)
}

// Emitter receives key/value pairs from map tasks.
type Emitter interface {
	Counter
	// Emit hands one intermediate pair to the shuffle. The engine copies
	// both slices; callers may reuse their buffers.
	Emit(key, value []byte) error
}

// Collector receives final output records from reduce tasks (or from map
// tasks in a map-only job).
type Collector interface {
	Counter
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

// ValueIter streams the values of one reduce group in sorted order. Next
// returns ok=false once the group is exhausted. Returned slices alias
// engine-owned storage that stays valid until the job completes (until the
// Reduce call returns, in a job that reduces in place: Job.WholeFileSplits);
// they must not be mutated.
type ValueIter interface {
	Next() (value []byte, ok bool, err error)
}

// StreamReducer folds all values sharing one key into zero or more output
// records. Values arrive through an iterator, never a materialized slice, so
// a group larger than memory can be folded incrementally. The engine feeds
// it from a merge of sorted in-memory segments and on-disk spill runs;
// values within a group arrive in nondecreasing byte order (the engine's
// deterministic shuffle order).
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

// Sink takes a job's main output in memory instead of the DFS — the final
// job of a query hands its records to the caller this way. Each task attempt
// collects into an Attempt of its own; only the attempt that wins its task's
// commit claim commits, so the sink holds every task's records exactly once,
// however many attempts failed, were killed or lost the race.
type Sink interface {
	// Attempt returns the collector of one task attempt's main output.
	Attempt() SinkAttempt
}

// SinkAttempt is one task attempt's share of a Sink. An attempt that does
// not commit is simply dropped.
type SinkAttempt interface {
	// Collect takes one record of the attempt's main output. It must not
	// keep the slice, which the task may reuse once the call returns.
	Collect(record []byte) error
	// Commit keeps what the attempt collected as the output of the given
	// task. It is called at most once per task, by the winning attempt, and
	// the commits of different tasks may run concurrently.
	Commit(task int)
}

// DirectCollector is implemented by the Collector an in-process task attempt
// is handed. Direct returns the attempt's share of the job's Sink when the
// main output goes to that Sink alone (Job.Sunk), and nil otherwise: an
// output that is persisted, written to the DFS or shipped to another process
// takes bytes. An operator whose records that SinkAttempt also takes in an
// unencoded form the two share may hand them over that way, skipping the
// encode and the sink's decode; it then reports each record so handed with
// Handed, giving the length its encoding would have had, so the attempt
// counts it exactly as Collect would.
type DirectCollector interface {
	Direct() SinkAttempt
	Handed(size int)
}

// TaskReducerFactory is implemented by a StreamReducer whose reduce keeps
// working memory from one group to the next: the engine calls NewTaskReducer
// once per task attempt that reduces (a reduce task, or a whole-file task
// reducing in place) and feeds that attempt's groups to the reducer it
// returns, which no other attempt sees. It mirrors TaskMapperFactory. The
// StreamReducer's own Reduce must still serve a lone call.
type TaskReducerFactory interface {
	NewTaskReducer(task int) TaskReducer
}

// TaskReducer is one task attempt's reducer (TaskReducerFactory). The engine
// calls Done once the attempt has reduced its last group, or has failed, and
// never calls the reducer again, so Done may give its working memory back.
type TaskReducer interface {
	StreamReducer
	Done()
}

// TaskMapperFactory builds the map-only operator for one task attempt, so
// operators with attempt-private state never see a rival attempt's. The
// side argument carries the records of the task's side input
// (Job.TaskSideInputs), already fetched by the engine; nil when the task
// has none. It mirrors TaskReducerFactory: an operator it builds that is
// also a TaskMapper is told when the attempt ends.
type TaskMapperFactory interface {
	NewTask(task int, side [][]byte) (MapOnlyMapper, error)
}

// TaskMapper is a map-only operator built for one task attempt
// (TaskMapperFactory) that holds working memory. The engine calls Done once
// the attempt has mapped its last record, or has failed, and never calls the
// operator again, so Done may give its working memory back.
type TaskMapper interface {
	MapOnlyMapper
	Done()
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
	// need attempt-private state or a side input: the engine calls NewTask
	// once per task attempt. Exclusive with MapOnly; implies a map-only job.
	MapOnlyFactory TaskMapperFactory
	// WholeFileSplits pins map-task granularity to whole input files: task
	// i scans exactly Inputs[i], never a sub-range. This is how
	// co-partitioned jobs keep task index == bucket index.
	//
	// On a job with a Mapper and a reducer it also removes the exchange:
	// the job declares its input files already partitioned and key-ordered
	// (Mapper output keys nondecreasing within each file), so each task
	// hands its mapper's pairs, one key run at a time, straight to the
	// reducer, with no sort, spill or shuffle. A key lower than the one
	// before fails the attempt; a run whose values arrive out of byte order
	// is sorted first, so StreamReducer's value order holds. The Combiner,
	// Partitioner and NumReducers are unused.
	WholeFileSplits bool
	// TaskSideInputs, indexed like Inputs under WholeFileSplits, names a
	// DFS file whose full contents are handed to task i's MapOnlyFactory
	// as the side argument ("" = no side input). The cascading map-side
	// join routes the previous cycle's per-bucket join-left records here.
	TaskSideInputs []string
	// StreamReducer runs in the reduce phase consuming values through an
	// iterator; a job with a reduce phase must set it.
	StreamReducer StreamReducer
	// Combiner, when non-nil, pre-folds map output per key at spill time
	// and on each map task's final in-memory segment. It must be
	// associative and commutative. Ignored by shuffle-free jobs.
	Combiner Combiner
	// NumReducers is the reduce-task parallelism; 0 defaults to the
	// engine's configured reducer count.
	NumReducers int
	// Partitioner routes keys to reducers; nil defaults to HashPartitioner.
	Partitioner Partitioner
	// Sink, when non-nil, receives the main output instead of the DFS: no
	// part file of Output is written or committed, and ReduceOutputBytes
	// counts the extra outputs only. Extra outputs are unaffected.
	Sink Sink
	// Persist keeps writing the main output to Output when Sink is set; each
	// task hands the same records to both in one pass, so the output is
	// written (and paid for) but never read back.
	Persist bool
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
		if j.StreamReducer == nil {
			return fmt.Errorf("mapreduce: job %s has no reducer", j.Name)
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
	return nil
}

// ShuffleFree reports whether the job runs without an exchange: a map-only
// job, or a whole-file job whose tasks reduce their own file's key runs in
// place. Either way it has one output task per map split and no reduce
// phase.
func (j *Job) ShuffleFree() bool {
	return j.MapOnly != nil || j.MapOnlyFactory != nil || j.WholeFileSplits
}

// OutputBases lists the job's output files in part order — the main output
// followed by the declared extra outputs — matching the Outputs slots of a
// MemCollector and the entries of Parts.
func (j *Job) OutputBases() []string {
	return append([]string{j.Output}, j.ExtraOutputs...)
}

// Sunk reports whether the main output goes to the Sink alone, never to
// the DFS.
func (j *Job) Sunk() bool { return j.Sink != nil && !j.Persist }

// fileBases lists the outputs written to the DFS as part files: OutputBases
// without the main output when it is sunk.
func (j *Job) fileBases() []string {
	if j.Sunk() {
		return j.ExtraOutputs
	}
	return j.OutputBases()
}

// outputBase returns OutputBases()[b].
func (j *Job) outputBase(b int) string {
	if b == 0 {
		return j.Output
	}
	return j.ExtraOutputs[b-1]
}

// taskMapper builds the map-only operator for one task attempt: the
// factory's per-attempt operator, or the shared MapOnly.
func (j *Job) taskMapper(task int, side [][]byte) (MapOnlyMapper, error) {
	if j.MapOnlyFactory != nil {
		return j.MapOnlyFactory.NewTask(task, side)
	}
	return j.MapOnly, nil
}

// KV is one intermediate key/value pair as it is read out of a Segment, both
// slices aliasing the segment's bytes. Map output itself is never held as
// KVs: it is framed Segments, one per reduce partition, in memory, in spill
// runs and on the cluster transport alike.
type KV struct {
	Key, Value []byte
}
