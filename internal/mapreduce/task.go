package mapreduce

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"time"

	"ntga/internal/chunk"
	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// This file is the task runtime: split planning, the map, shuffle-free and
// reduce task bodies, and the part-file commit. Every piece exists once and
// is parameterised only by where records come from and where output goes, so
// the in-process engine (engine.go) and the RPC workers (internal/cluster)
// run the same code and a task produces byte-identical output on either
// substrate. The merge comparator orders pairs by (key, value), so any
// correct merge of the per-task sorted segments feeds reducers the same
// stream regardless of where (or how often) the maps ran.

// Split is one map task's input assignment: a record range of one DFS file
// (N < 0 means "through the end").
type Split struct {
	Input string
	Off   int
	N     int
}

// PlanSplits cuts the job's inputs into map splits of at most splitRecords
// records from DFS metadata alone, accumulating the input totals and the task
// count into m. A zero-record input still yields one empty split, and a
// WholeFileSplits job gets exactly one split per input, so task index ==
// input index (empty buckets included).
func PlanSplits(d *hdfs.DFS, job *Job, splitRecords int, m *JobMetrics) ([]Split, error) {
	var splits []Split
	for _, in := range job.Inputs {
		n, err := d.RecordCount(in)
		if err != nil {
			return nil, fmt.Errorf("reading input: %w", err)
		}
		size, err := d.FileSize(in)
		if err != nil {
			return nil, fmt.Errorf("sizing input: %w", err)
		}
		m.MapInputBytes += size
		m.MapInputRecords += int64(n)
		if job.WholeFileSplits || n == 0 {
			splits = append(splits, Split{Input: in, N: n})
			continue
		}
		for off := 0; off < n; off += splitRecords {
			splits = append(splits, Split{Input: in, Off: off, N: min(splitRecords, n-off)})
		}
	}
	m.MapTasks = len(splits)
	return splits, nil
}

// RecordSource yields a task's input records one at a time; io.EOF ends the
// stream. *hdfs.FileReader is one; workers wrap an RPC-fetched split in a
// SliceSource.
type RecordSource interface {
	Next() ([]byte, error)
}

// SliceSource is a RecordSource over records already in memory.
type SliceSource struct {
	recs [][]byte
}

// NewSliceSource returns a source that yields recs in order.
func NewSliceSource(recs [][]byte) *SliceSource { return &SliceSource{recs: recs} }

// Next implements RecordSource.
func (s *SliceSource) Next() ([]byte, error) {
	if len(s.recs) == 0 {
		return nil, io.EOF
	}
	rec := s.recs[0]
	s.recs = s.recs[1:]
	return rec, nil
}

// TaskHooks is what a substrate threads through a task body. Checkpoint is
// called at every phase boundary and every 64 records inside the loops; an
// error from it stops the attempt (the local engine's fault plan, kill
// signals and cancellation; a worker's shutdown). Span, when non-nil, turns
// on fine-grained phase timing. The zero value does neither.
type TaskHooks struct {
	Checkpoint func(phase string) error
	Span       *trace.Span
}

func (h TaskHooks) checkpoint(phase string) error {
	if h.Checkpoint == nil {
		return nil
	}
	return h.Checkpoint(phase)
}

// ScanStats is what the fused scan+map loop of one task measured. The
// durations are only taken on a traced task.
type ScanStats struct {
	Records, Bytes  int64
	ScanDur, MapDur time.Duration
}

// scanLoop is the fused record loop of a map or map-only task: read a
// record, hand it to fn, checkpoint every 64 records. On a traced task each
// side's time is accumulated separately (plus the input bytes for the scan
// phase).
func scanLoop(task int, input string, src RecordSource, h TaskHooks, fn func(rec []byte) error) (st ScanStats, err error) {
	traced := h.Span != nil
	for ; ; st.Records++ {
		if st.Records%64 == 0 {
			if err := h.checkpoint("map"); err != nil {
				return st, err
			}
		}
		var rec []byte
		if traced {
			t0 := time.Now()
			rec, err = src.Next()
			st.ScanDur += time.Since(t0)
		} else {
			rec, err = src.Next()
		}
		if err == io.EOF {
			return st, nil
		}
		if err == nil {
			if traced {
				st.Bytes += int64(len(rec))
				t0 := time.Now()
				err = fn(rec)
				st.MapDur += time.Since(t0)
			} else {
				err = fn(rec)
			}
		}
		if err != nil {
			return st, fmt.Errorf("map task %d (%s): %w", task, input, err)
		}
	}
}

// runMapTask is the map task body: every record of src goes through
// job.Mapper under the given input name into te, which is then sealed
// (sorted and combiner-folded per partition). The input name must be the one
// the job's Mapper expects — on a worker, the rebuilt plan's local name in
// the split's position. A traced task records its scan/map/spill/sort phases.
func runMapTask(job *Job, task int, input string, src RecordSource, te *taskEmitter, h TaskHooks) error {
	if err := h.checkpoint("scan"); err != nil {
		return err
	}
	st, err := scanLoop(task, input, src, h, func(rec []byte) error {
		return job.Mapper.Map(input, rec, te)
	})
	if err != nil {
		return err
	}
	if err := h.checkpoint("sort"); err != nil {
		return err
	}
	sortStart := time.Now()
	if err := te.seal(); err != nil {
		return fmt.Errorf("map task %d (%s): %w", task, input, err)
	}
	if tsp := h.Span; tsp != nil {
		// Spill time happened inside Mapper.Map calls (the emitter spills
		// when the buffer crosses the budget); carve it out of the map
		// phase so the two aren't double-counted.
		var spillDur time.Duration
		for _, s := range te.spills {
			spillDur += s.dur
		}
		tsp.AddPhase(trace.KindScan, "scan", st.ScanDur, st.Records, st.Bytes)
		tsp.AddPhase(trace.KindMap, "map", st.MapDur-spillDur, te.records, te.bytes)
		for _, s := range te.spills {
			tsp.AddPhase(trace.KindSpill, "spill", s.dur, s.records, s.bytes)
		}
		tsp.AddPhase(trace.KindSort, "sort", time.Since(sortStart), te.records, te.bytes)
		tsp.SetIO(te.records, te.bytes)
	}
	return nil
}

// MapOutput is what one map task attempt produced: one (key, value)-sorted,
// combiner-folded segment per reduce partition, the pre-combine map-output
// counts (Hadoop's "Map output records") and the attempt's counters.
type MapOutput struct {
	Parts          [][]KV
	Records, Bytes int64
	Counters       Counters
}

// RunMapTask runs the map body over an in-memory (never spilling) emitter
// and returns the task's output.
func RunMapTask(job *Job, task int, input string, nReducers int, src RecordSource, h TaskHooks) (MapOutput, error) {
	// Budget 0 disables spilling, so the nil DFS is never touched.
	te := newTaskEmitter(nil, job, nReducers, 0, 0, h)
	if err := runMapTask(job, task, input, src, te, h); err != nil {
		return MapOutput{}, err
	}
	return MapOutput{Parts: te.parts, Records: te.records, Bytes: te.bytes, Counters: te.counters}, nil
}

// RunMapOnlyTask is the shuffle-free task body (Job.ShuffleFree). A map-only
// job's operator for this task index (== bucket index under
// WholeFileSplits) is built fresh from the pre-fetched side input, so a
// retried attempt never sees a rival's state, and every record of src goes
// through it into col. A whole-file job with a reducer instead streams its
// mapper's pairs through a fresh runEmitter, which reduces each key run into
// col as the next one starts and the last one after the split ends, still
// inside the attempt so a fault retries the whole task.
func RunMapOnlyTask(job *Job, task int, input string, side [][]byte, src RecordSource, col Collector, h TaskHooks) (ScanStats, error) {
	if err := h.checkpoint("scan"); err != nil {
		return ScanStats{}, err
	}
	var (
		fn   func(rec []byte) error
		runs *runEmitter
	)
	if job.MapOnly != nil || job.MapOnlyFactory != nil {
		tm, err := job.taskMapper(task, side)
		if err != nil {
			return ScanStats{}, fmt.Errorf("map task %d (%s): %w", task, input, err)
		}
		fn = func(rec []byte) error { return tm.MapRecord(input, rec, col) }
	} else {
		runs = newRunEmitter(job, col)
		fn = func(rec []byte) error { return job.Mapper.Map(input, rec, runs) }
	}
	st, err := scanLoop(task, input, src, h, fn)
	if err != nil {
		return st, err
	}
	if runs != nil {
		t0 := time.Now()
		if err := runs.reduce(); err != nil {
			return st, fmt.Errorf("map task %d (%s): %w", task, input, err)
		}
		if h.Span != nil {
			st.MapDur += time.Since(t0)
		}
	}
	return st, h.checkpoint("write")
}

// runEmitter is the Emitter of a whole-file task that reduces in place: it
// buffers the current key run's values and hands the run to the job's
// reducer once a higher key arrives (or the split ends). The buffers are
// reused from run to run, so a task allocates only while its largest run
// grows.
type runEmitter struct {
	job     *Job
	reducer StreamReducer
	col     Collector
	started bool   // a run has begun; key is its key
	key     []byte // the current run's key
	vals    []byte // its values, back to back
	ends    []int  // the end offset of each value in vals
	last    int    // the offset of the last value in vals
	sorted  bool   // the values arrived in nondecreasing byte order
	run     runValues
}

func newRunEmitter(job *Job, col Collector) *runEmitter {
	r := &runEmitter{job: job, reducer: job.StreamReducer, col: col, sorted: true}
	if r.reducer == nil {
		r.reducer = adaptedReducer{job.Reducer}
	}
	return r
}

// Inc implements Counter: the reducer's collector holds the attempt's
// counters.
func (r *runEmitter) Inc(name string, delta int64) { r.col.Inc(name, delta) }

// Emit implements Emitter.
func (r *runEmitter) Emit(key, value []byte) error {
	if !r.started || !bytes.Equal(key, r.key) {
		if r.started && bytes.Compare(key, r.key) < 0 {
			return fmt.Errorf("mapreduce: job %s reduces in place, but key %x follows key %x: input is not key-ordered", r.job.Name, key, r.key)
		}
		if err := r.reduce(); err != nil {
			return err
		}
		r.started = true
		r.key = append(r.key[:0], key...)
	} else if r.sorted && bytes.Compare(value, r.vals[r.last:]) < 0 {
		r.sorted = false
	}
	r.last = len(r.vals)
	r.vals = append(r.vals, value...)
	r.ends = append(r.ends, len(r.vals))
	return nil
}

// reduce hands the buffered run, sorted if it has to be, to the reducer and
// empties the buffers.
func (r *runEmitter) reduce() error {
	if len(r.ends) == 0 {
		return nil
	}
	vals, start := r.run.vals[:0], 0
	for _, end := range r.ends {
		vals = append(vals, r.vals[start:end:end])
		start = end
	}
	if !r.sorted {
		slices.SortFunc(vals, bytes.Compare)
	}
	r.run = runValues{vals: vals}
	err := r.reducer.Reduce(r.key, &r.run, r.col)
	r.vals, r.ends, r.sorted = r.vals[:0], r.ends[:0], true
	return err
}

// runValues is the ValueIter over one in-place key run.
type runValues struct {
	vals [][]byte
	next int
}

// Next implements ValueIter.
func (v *runValues) Next() ([]byte, bool, error) {
	if v.next == len(v.vals) {
		return nil, false, nil
	}
	v.next++
	return v.vals[v.next-1], true, nil
}

// ReduceStats is what one reduce task consumed: its key groups and the
// merged shuffle pairs and bytes — the per-partition load the skew metrics
// are computed from. LoopDur is the wall clock of the fused reduce+write loop.
type ReduceStats struct {
	Groups, InPairs, InBytes int64
	LoopDur                  time.Duration
}

// runReduceTask is the reduce task body for one partition: merge the sorted
// sources into one stream, group by key, and feed the job's reducer, which
// streams output records into col.
func runReduceTask(job *Job, partition int, sources []kvSource, col Collector, h TaskHooks) (st ReduceStats, err error) {
	wrap := func(err error) error { return fmt.Errorf("reduce partition %d: %w", partition, err) }
	reducer := job.StreamReducer
	if reducer == nil {
		reducer = adaptedReducer{job.Reducer}
	}
	mi, err := newMergeIter(sources)
	if err != nil {
		return st, wrap(err)
	}
	g, err := newGroupIter(mi)
	if err != nil {
		return st, wrap(err)
	}
	loopStart := time.Now()
	vals := &groupValues{g: g}
	for g.ok {
		if st.Groups%64 == 0 {
			if err := h.checkpoint("reduce"); err != nil {
				return st, err
			}
		}
		vals.key, vals.head, vals.done = g.cur.Key, true, false
		st.Groups++
		if err := reducer.Reduce(g.cur.Key, vals, col); err != nil {
			return st, wrap(err)
		}
		if err := vals.drain(); err != nil {
			return st, wrap(err)
		}
	}
	st.InPairs, st.InBytes, st.LoopDur = g.pairs, g.bytes, time.Since(loopStart)
	return st, h.checkpoint("write")
}

// RunReduceTask runs the reduce body over fetched map outputs: segs[t] is
// map task t's sorted segment for this partition (nil or empty when the map
// emitted nothing here).
func RunReduceTask(job *Job, partition int, segs [][]KV, col Collector, h TaskHooks) (ReduceStats, error) {
	var sources []kvSource
	for _, seg := range segs {
		if len(seg) > 0 {
			sources = append(sources, &memSource{kvs: seg})
		}
	}
	return runReduceTask(job, partition, sources, col, h)
}

// MemCollector buffers a task's output records per output base, in
// Job.OutputBases order — a worker ships them to the coordinator, which
// writes them as the task's part files. Records are copied, since mappers
// and reducers may reuse their buffers: into chunked slabs sized by
// chunk.Next, each record clipped to its length, as the DFS writer copies on
// Append. Counters are the attempt's own (Counter).
type MemCollector struct {
	Outputs        [][][]byte
	Records, Bytes int64
	Counters       Counters
	slots          map[string]int
	slab           []byte
}

// NewMemCollector returns an empty collector for the job's outputs.
func NewMemCollector(job *Job) *MemCollector {
	c := &MemCollector{
		Outputs: make([][][]byte, 1+len(job.ExtraOutputs)),
		slots:   make(map[string]int, len(job.ExtraOutputs)),
	}
	for i, eo := range job.ExtraOutputs {
		c.slots[eo] = i + 1
	}
	return c
}

func (c *MemCollector) add(slot int, record []byte) {
	if cap(c.slab)-len(c.slab) < len(record) {
		c.slab = make([]byte, 0, chunk.Next(cap(c.slab), len(record)))
	}
	start := len(c.slab)
	c.slab = append(c.slab, record...)
	c.Outputs[slot] = append(c.Outputs[slot], c.slab[start:len(c.slab):len(c.slab)])
	c.Records++
	c.Bytes += int64(len(record))
}

// Inc implements Counter.
func (c *MemCollector) Inc(name string, delta int64) { c.Counters.Inc(name, delta) }

// Collect implements Collector.
func (c *MemCollector) Collect(record []byte) error {
	c.add(0, record)
	return nil
}

// CollectTo implements NamedCollector.
func (c *MemCollector) CollectTo(output string, record []byte) error {
	slot, ok := c.slots[output]
	if !ok {
		return fmt.Errorf("mapreduce: CollectTo(%q): not a declared extra output", output)
	}
	c.add(slot, record)
	return nil
}

// PartName is the per-task part file a reduce (or map-only) task's winning
// attempt publishes its output as; CommitParts splices the parts into the
// job output once every task has committed.
func PartName(base string, i int) string {
	return fmt.Sprintf("%s._part-%05d", base, i)
}

// CommitParts assembles each job output from its nParts per-task part files
// in task order — a pure block splice (hdfs.Concat), since every record was
// already written (and paid for) by the task that produced it. A sunk main
// output has no part files and is skipped.
func CommitParts(d *hdfs.DFS, job *Job, nParts int) error {
	for _, base := range job.fileBases() {
		names := make([]string, nParts)
		for i := range names {
			names[i] = PartName(base, i)
		}
		if err := d.Concat(base, names); err != nil {
			return fmt.Errorf("committing output %s: %w", base, err)
		}
	}
	return nil
}

// RemoveOutputs deletes a failed job's outputs and whichever of its nParts
// part files per output were already published.
func RemoveOutputs(d *hdfs.DFS, job *Job, nParts int) {
	for _, base := range job.fileBases() {
		d.DeleteIfExists(base)
		for i := 0; i < nParts; i++ {
			d.DeleteIfExists(PartName(base, i))
		}
	}
}
