package mapreduce

import (
	"fmt"
	"time"

	"ntga/internal/chunk"
	"ntga/internal/codec"
	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// This file implements the bounded-memory half of the shuffle: map tasks
// buffer emitted pairs up to EngineConfig.SortBufferBytes (io.sort.mb),
// then sort, combine, and spill a run to node-local disk; reduce tasks
// external-merge the spilled runs with the surviving in-memory segments
// (io.sort.factor) and feed the reducer through a streaming group iterator.
//
// Run format: each record is codec-framed as PutBytes(key) PutBytes(value),
// concatenated per reduce partition; a runSeg records each partition's byte
// range and record count within the run.

// runSeg locates one reduce partition's slice of a spill run.
type runSeg struct {
	off     int
	len     int
	records int
}

// spillRun is one sorted, partitioned run on node-local disk.
type spillRun struct {
	spill *hdfs.Spill
	segs  []runSeg // indexed by reduce partition
}

func (r *spillRun) release() { r.spill.Release() }

// taskEmitter buffers one map task's output, partitioned by reducer,
// spilling sorted runs to local disk whenever the buffer exceeds the sort
// budget. A budget of zero keeps everything in memory (no spilling).
type taskEmitter struct {
	dfs         *hdfs.DFS
	partitioner Partitioner
	nReducers   int
	combiner    Combiner
	budget      int64
	// node pins the attempt's spill runs to its own data node, so a node
	// death loses exactly that node's map output; cp (nil-safe) is the
	// attempt's fault checkpoint, fired inside every buffer spill.
	node int
	cp   func(phase string) error

	parts        [][]KV
	buffered     int64 // bytes currently in parts
	peakBuffered int64
	// slab is the chunk Emit is copying pairs into; a full chunk lives on
	// through the pairs that point into it. enc frames spill records.
	slab []byte
	enc  codec.Buffer

	// Map-output counters are pre-combine (Hadoop's "Map output records"),
	// spill counters post-combine ("Spilled Records").
	records        int64
	bytes          int64
	spilledRecords int64
	spilledBytes   int64
	// counters are the attempt's own (Counter).
	counters Counters

	runs   []*spillRun
	sealed bool

	// traced turns on per-spill wall-clock profiling; the engine replays the
	// recorded profiles as spill phases on the map task's span.
	traced bool
	spills []spillProfile
}

// spillProfile is the timing/IO record of one buffer spill, kept so the
// engine can emit spill phases (and subtract their time from the fused map
// phase) after the task finishes.
type spillProfile struct {
	dur     time.Duration
	records int64
	bytes   int64
}

// newTaskEmitter builds the emitter for one map attempt of the job; the
// attempt's hooks supply the spill checkpoint and turn on spill profiling.
func newTaskEmitter(dfs *hdfs.DFS, job *Job, nReducers int, budget int64, node int, h TaskHooks) *taskEmitter {
	p := job.Partitioner
	if p == nil {
		p = HashPartitioner
	}
	return &taskEmitter{
		dfs: dfs, partitioner: p, nReducers: nReducers,
		combiner: job.Combiner, budget: budget, node: node,
		cp: h.Checkpoint, traced: h.Span != nil,
		parts: make([][]KV, nReducers),
	}
}

// Inc implements Counter.
func (t *taskEmitter) Inc(name string, delta int64) { t.counters.Inc(name, delta) }

// Emit copies the pair into the task's slab — the caller may reuse both
// buffers as soon as it returns — and spills once the buffer reaches the sort
// budget.
func (t *taskEmitter) Emit(key, value []byte) error {
	p := t.partitioner(key, t.nReducers)
	if p < 0 || p >= t.nReducers {
		return fmt.Errorf("mapreduce: partitioner returned %d for %d reducers", p, t.nReducers)
	}
	n := len(key) + len(value)
	if cap(t.slab)-len(t.slab) < n {
		// A chunk never exceeds the sort budget, so the slabs hold at most
		// about twice what buffered counts.
		size := chunk.Next(cap(t.slab), 0)
		if t.budget > 0 {
			size = int(min(int64(size), t.budget))
		}
		t.slab = make([]byte, 0, max(size, n))
	}
	off, mid := len(t.slab), len(t.slab)+len(key)
	t.slab = append(append(t.slab, key...), value...)
	t.parts[p] = append(t.parts[p], KV{t.slab[off:mid:mid], t.slab[mid : off+n : off+n]})
	t.records++
	t.bytes += int64(n)
	t.buffered += int64(n)
	if t.buffered > t.peakBuffered {
		t.peakBuffered = t.buffered
	}
	if t.budget > 0 && t.buffered >= t.budget {
		return t.spillBuffer()
	}
	return nil
}

// combine folds a (key,value)-sorted segment through the job's combiner;
// without one the segment passes through unchanged.
func (t *taskEmitter) combine(part []KV) ([]KV, error) {
	if t.combiner == nil || len(part) == 0 {
		return part, nil
	}
	combined := make([]KV, 0, len(part))
	for i := 0; i < len(part); {
		j := i + 1
		for j < len(part) && compareBytes(part[j].Key, part[i].Key) == 0 {
			j++
		}
		values := make([][]byte, 0, j-i)
		for k := i; k < j; k++ {
			values = append(values, part[k].Value)
		}
		folded, err := t.combiner.Combine(part[i].Key, values)
		if err != nil {
			return nil, err
		}
		for _, v := range folded {
			combined = append(combined, KV{part[i].Key, v})
		}
		i = j
	}
	// Combiner output order within a key is the combiner's business; re-sort
	// so segments stay (key, value)-ordered for the merge.
	sortKVs(combined)
	return combined, nil
}

// spillBuffer sorts, combines, and writes every buffered partition as one
// run on node-local disk, then resets the buffer.
func (t *taskEmitter) spillBuffer() error {
	if t.buffered == 0 {
		return nil
	}
	if t.cp != nil {
		if err := t.cp("spill"); err != nil {
			return err
		}
	}
	var spillStart time.Time
	var recsBefore int64
	if t.traced {
		spillStart = time.Now()
		recsBefore = t.spilledRecords
	}
	w := t.dfs.CreateSpillOn(t.node)
	run := &spillRun{segs: make([]runSeg, t.nReducers)}
	off := 0
	for p := range t.parts {
		sortKVs(t.parts[p])
		part, err := t.combine(t.parts[p])
		if err != nil {
			w.Abort()
			return err
		}
		start := off
		for _, pair := range part {
			t.enc.Reset()
			t.enc.PutBytes(pair.Key)
			t.enc.PutBytes(pair.Value)
			n, err := w.Write(t.enc.Bytes())
			if err != nil {
				w.Abort()
				return err
			}
			off += n
		}
		run.segs[p] = runSeg{off: start, len: off - start, records: len(part)}
		t.spilledRecords += int64(len(part))
		t.parts[p] = t.parts[p][:0]
	}
	t.spilledBytes += int64(off)
	run.spill = w.Close()
	t.runs = append(t.runs, run)
	// Every buffered pair is in the run now: the current chunk starts over.
	t.buffered, t.slab = 0, t.slab[:0]
	if t.traced {
		t.spills = append(t.spills, spillProfile{
			dur:     time.Since(spillStart),
			records: t.spilledRecords - recsBefore,
			bytes:   int64(off),
		})
	}
	return nil
}

// seal sorts (and combines) the final in-memory segment of every partition.
// Called once at the end of a successful map attempt; the reduce phase then
// merges t.parts with t.runs.
func (t *taskEmitter) seal() error {
	for p := range t.parts {
		sortKVs(t.parts[p])
		part, err := t.combine(t.parts[p])
		if err != nil {
			return err
		}
		t.parts[p] = part
	}
	t.sealed = true
	return nil
}

// discard releases every spill run the task wrote — called when a spilled
// attempt fails (so retries do not leak local disk) and at job end.
// Releasing a run lost to a node death is a no-op.
func (t *taskEmitter) discard() {
	for _, r := range t.runs {
		r.release()
	}
	t.runs = nil
}

// lost reports whether any of the emitter's spill runs died with its node
// — the task's map output is incomplete and must be regenerated.
func (t *taskEmitter) lost() bool {
	for _, r := range t.runs {
		if r.spill.Lost() {
			return true
		}
	}
	return false
}

// kvSource yields (key,value) pairs in nondecreasing (key,value) order.
type kvSource interface {
	next() (KV, bool, error)
}

// memSource iterates a sorted in-memory segment.
type memSource struct {
	kvs []KV
	i   int
}

func (s *memSource) next() (KV, bool, error) {
	if s.i >= len(s.kvs) {
		return KV{}, false, nil
	}
	p := s.kvs[s.i]
	s.i++
	return p, true, nil
}

// runSource decodes one partition segment of an on-disk run, charging
// spill-read accounting as records are consumed.
type runSource struct {
	spill     *hdfs.Spill
	r         *codec.Reader
	remaining int
}

func newRunSource(spill *hdfs.Spill, seg runSeg) *runSource {
	return &runSource{
		spill:     spill,
		r:         codec.NewReader(spill.Slice(seg.off, seg.len)),
		remaining: seg.records,
	}
}

func (s *runSource) next() (KV, bool, error) {
	if s.remaining == 0 {
		return KV{}, false, nil
	}
	if s.spill.Lost() {
		return KV{}, false, fmt.Errorf("mapreduce: spill run read: %w", hdfs.ErrNodeLost)
	}
	before := s.r.Remaining()
	key, err := s.r.Bytes()
	if err != nil {
		return KV{}, false, fmt.Errorf("mapreduce: corrupt spill run: %w", err)
	}
	value, err := s.r.Bytes()
	if err != nil {
		return KV{}, false, fmt.Errorf("mapreduce: corrupt spill run: %w", err)
	}
	s.remaining--
	s.spill.ChargeRead(int64(before - s.r.Remaining()))
	return KV{key, value}, true, nil
}

// mergeIter is a loser-free binary-heap merge of sorted kv sources.
type mergeIter struct {
	h []mergeItem
}

type mergeItem struct {
	head KV
	src  kvSource
}

func newMergeIter(sources []kvSource) (*mergeIter, error) {
	m := &mergeIter{h: make([]mergeItem, 0, len(sources))}
	for _, s := range sources {
		p, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h = append(m.h, mergeItem{p, s})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

func (m *mergeIter) less(a, b int) bool {
	c := compareBytes(m.h[a].head.Key, m.h[b].head.Key)
	if c != 0 {
		return c < 0
	}
	return compareBytes(m.h[a].head.Value, m.h[b].head.Value) < 0
}

func (m *mergeIter) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(m.h) && m.less(l, least) {
			least = l
		}
		if r < len(m.h) && m.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		m.h[i], m.h[least] = m.h[least], m.h[i]
		i = least
	}
}

func (m *mergeIter) next() (KV, bool, error) {
	if len(m.h) == 0 {
		return KV{}, false, nil
	}
	top := m.h[0].head
	p, ok, err := m.h[0].src.next()
	if err != nil {
		return KV{}, false, err
	}
	if ok {
		m.h[0].head = p
	} else {
		m.h[0] = m.h[len(m.h)-1]
		m.h = m.h[:len(m.h)-1]
	}
	if len(m.h) > 1 {
		m.down(0)
	}
	return top, true, nil
}

// groupIter slices a sorted kv stream into reduce groups.
type groupIter struct {
	m   *mergeIter
	cur KV
	ok  bool
	// pairs counts every pair consumed from the merge (the partition's
	// post-combine record count, for the skew metric); bytes sums their
	// key+value sizes (for the byte-skew metric and reduce-span IO).
	pairs int64
	bytes int64
}

func newGroupIter(m *mergeIter) (*groupIter, error) {
	g := &groupIter{m: m}
	var err error
	g.cur, g.ok, err = m.next()
	if g.ok {
		g.pairs++
		g.bytes += int64(len(g.cur.Key) + len(g.cur.Value))
	}
	return g, err
}

// groupValues is the ValueIter for the current group. The engine drains it
// after the reducer returns, so a reducer may stop early.
type groupValues struct {
	g    *groupIter
	key  []byte
	head bool // g.cur is this group's next unconsumed value
	done bool
}

func (v *groupValues) Next() ([]byte, bool, error) {
	if v.done {
		return nil, false, nil
	}
	g := v.g
	if v.head {
		v.head = false
		return g.cur.Value, true, nil
	}
	p, ok, err := g.m.next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		g.ok = false
		v.done = true
		return nil, false, nil
	}
	g.cur = p
	g.pairs++
	g.bytes += int64(len(p.Key) + len(p.Value))
	if compareBytes(p.Key, v.key) != 0 {
		v.done = true
		return nil, false, nil
	}
	return p.Value, true, nil
}

func (v *groupValues) drain() error {
	for {
		_, ok, err := v.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// adaptedReducer presents a slice-based Reducer as a StreamReducer by
// materializing each group's values.
type adaptedReducer struct{ r Reducer }

func (a adaptedReducer) Reduce(key []byte, values ValueIter, out Collector) error {
	var vals [][]byte
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		vals = append(vals, v)
	}
	return a.r.Reduce(key, vals, out)
}

// mergeRuns reduces the number of on-disk runs to at most factor by
// merging batches of runs into new single-segment runs on the attempt's
// local disk, one merge pass per batch (Hadoop's multi-pass external merge
// under io.sort.factor). It returns the surviving sources plus the
// temporary runs it created, which the caller must release when the reduce
// attempt finishes. In-memory segments never count against the factor.
// Each batch merged is recorded as a merge phase on tsp (nil-safe no-op)
// and passes one fault checkpoint.
func (e *Engine) mergeRuns(srcs []*runSource, factor int, tsp *trace.Span, ac *attemptCtx, passes, spilledRecs, spilledBytes *int64) ([]*runSource, []*spillRun, error) {
	var temps []*spillRun
	traced := tsp != nil
	var buf codec.Buffer
	for len(srcs) > factor {
		if err := ac.checkpoint("merge"); err != nil {
			return srcs, temps, err
		}
		var passStart time.Time
		if traced {
			passStart = time.Now()
		}
		batch := make([]kvSource, factor)
		for i, s := range srcs[:factor] {
			batch[i] = s
		}
		mi, err := newMergeIter(batch)
		if err != nil {
			return srcs, temps, err
		}
		w := e.dfs.CreateSpillOn(ac.node)
		off, nrec := 0, 0
		for {
			p, ok, err := mi.next()
			if err != nil {
				w.Abort()
				return srcs, temps, err
			}
			if !ok {
				break
			}
			buf.Reset()
			buf.PutBytes(p.Key)
			buf.PutBytes(p.Value)
			n, err := w.Write(buf.Bytes())
			if err != nil {
				w.Abort()
				return srcs, temps, err
			}
			off += n
			nrec++
		}
		run := &spillRun{
			spill: w.Close(),
			segs:  []runSeg{{off: 0, len: off, records: nrec}},
		}
		temps = append(temps, run)
		*passes++
		*spilledRecs += int64(nrec)
		*spilledBytes += int64(off)
		if traced {
			tsp.AddPhase(trace.KindMerge, "merge", time.Since(passStart), int64(nrec), int64(off))
		}
		srcs = append([]*runSource{newRunSource(run.spill, run.segs[0])}, srcs[factor:]...)
	}
	return srcs, temps, nil
}
