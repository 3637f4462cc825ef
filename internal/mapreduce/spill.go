package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"ntga/internal/chunk"
	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// This file implements the bounded-memory half of the shuffle: map tasks
// buffer emitted pairs up to EngineConfig.SortBufferBytes (io.sort.mb),
// then sort, combine, and spill a run to node-local disk; reduce tasks
// external-merge the spilled runs with the sealed in-memory segments
// (io.sort.factor) and feed the reducer through a streaming group iterator.
//
// The buffer is Hadoop's MapOutputBuffer: one byte buffer of keys and values
// and a pointer-free index entry per pair (sortBuffer), sorted in place. A
// spill frames each partition's sorted pairs into a Segment of the run; seal
// frames the last buffer's into Segments of one exactly-sized slab. Both are
// the framing the reduce-side merge reads (segSource) and the cluster's
// Fetch ships.

// spillRun is one sorted, partitioned run on node-local disk: segs[p] is
// reduce partition p's slice of the run's bytes.
type spillRun struct {
	spill *hdfs.Spill
	segs  []Segment
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

	// scratch holds the buffered pairs; it is taken from scratchPool when
	// the attempt starts and returned by seal.
	scratch      *sortScratch
	buffered     int64 // key+value bytes currently buffered
	peakBuffered int64
	// segs are the sealed in-memory segments, one per reduce partition.
	segs []Segment

	// Map-output counters are pre-combine (Hadoop's "Map output records"),
	// spill counters post-combine ("Spilled Records").
	records        int64
	bytes          int64
	spilledRecords int64
	spilledBytes   int64
	// counters are the attempt's own (Counter).
	counters Counters

	runs []*spillRun

	// traced turns on per-spill wall-clock profiling; the engine replays the
	// recorded profiles as spill phases on the map task's span.
	traced bool
	spills []spillProfile
}

// sortScratch is a map attempt's sort and spill working memory: the sort
// buffer, the buffer a spill or a combined seal frames its output in, and
// the combiner's value list. Between attempts it holds nothing of their
// pairs, so a sealed attempt hands it on to the next through scratchPool,
// and a steady stream of tasks grows it once.
type sortScratch struct {
	sortBuffer
	enc  []byte
	vals [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// maxPooledScratch bounds the bytes a pooled sortScratch may hold on to, so
// one huge buffer cannot pin its arrays for the rest of the process.
const maxPooledScratch = 4 << 20

// release empties s and returns it to the pool, or drops it if it outgrew
// the bound.
func (s *sortScratch) release() {
	const entry, slice = int(unsafe.Sizeof(pairEntry{})), int(unsafe.Sizeof([]byte(nil)))
	s.reset()
	if cap(s.buf)+entry*(cap(s.ents)+cap(s.tmp))+cap(s.enc)+slice*cap(s.vals) <= maxPooledScratch {
		scratchPool.Put(s)
	}
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
		scratch: scratchPool.Get().(*sortScratch),
	}
}

// Inc implements Counter.
func (t *taskEmitter) Inc(name string, delta int64) { t.counters.Inc(name, delta) }

// Emit copies the pair into the sort buffer — the caller may reuse both
// buffers as soon as it returns — and spills once the buffer reaches the sort
// budget.
func (t *taskEmitter) Emit(key, value []byte) error {
	p := t.partitioner(key, t.nReducers)
	if p < 0 || p >= t.nReducers {
		return fmt.Errorf("mapreduce: partitioner returned %d for %d reducers", p, t.nReducers)
	}
	if err := t.scratch.add(p, key, value); err != nil {
		return err
	}
	n := int64(len(key) + len(value))
	t.records++
	t.bytes += n
	t.buffered += n
	if t.buffered > t.peakBuffered {
		t.peakBuffered = t.buffered
	}
	if t.budget > 0 && t.buffered >= t.budget {
		return t.spillBuffer()
	}
	return nil
}

// appendSorted appends the pairs of sorted entries to dst in the shuffle
// framing, each key's values folded through the job's combiner when it has
// one, and returns dst and the number of pairs it framed.
func (t *taskEmitter) appendSorted(dst []byte, ents []pairEntry) ([]byte, int, error) {
	s := t.scratch
	if t.combiner == nil {
		for i := range ents {
			kv := s.pair(&ents[i])
			dst = appendPair(dst, kv.Key, kv.Value)
		}
		return dst, len(ents), nil
	}
	pairs := 0
	for i := 0; i < len(ents); {
		key := s.pair(&ents[i]).Key
		j := i + 1
		for j < len(ents) && ents[j].prefix == ents[i].prefix &&
			(byte(ents[i].prefix) < 8 || bytes.Equal(s.pair(&ents[j]).Key, key)) {
			j++
		}
		s.vals = s.vals[:0]
		for k := i; k < j; k++ {
			s.vals = append(s.vals, s.pair(&ents[k]).Value)
		}
		folded, err := t.combiner.Combine(key, s.vals)
		if err != nil {
			return dst, pairs, err
		}
		// Combiner output order within a key is the combiner's business;
		// sort it so the segment stays (key, value)-ordered.
		if !slices.IsSortedFunc(folded, bytes.Compare) {
			slices.SortFunc(folded, bytes.Compare)
		}
		for _, v := range folded {
			dst = appendPair(dst, key, v)
		}
		pairs += len(folded)
		i = j
	}
	return dst, pairs, nil
}

// spillBuffer sorts, combines, and writes every buffered partition as one
// run on node-local disk, then empties the buffer. Each partition's segment
// is framed whole and written with one call.
func (t *taskEmitter) spillBuffer() error {
	s := t.scratch
	if len(s.ents) == 0 {
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
	w.Grow(s.framed) // the run's size unless the combiner folds some pairs away
	s.sort()
	segs := make([]Segment, t.nReducers)
	for i := 0; i < len(s.ents); {
		j := partEnd(s.ents, i)
		var err error
		var n int
		s.enc, n, err = t.appendSorted(s.enc[:0], s.ents[i:j])
		if err == nil {
			_, err = w.Write(s.enc)
		}
		if err != nil {
			w.Abort()
			return err
		}
		segs[s.ents[i].part] = Segment{Pairs: n, Data: s.enc}
		i = j
	}
	run := &spillRun{spill: w.Close(), segs: segs}
	size := int(run.spill.Size())
	placeSegments(segs, run.spill.Slice(0, size))
	for _, seg := range segs {
		t.spilledRecords += int64(seg.Pairs)
	}
	t.spilledBytes += int64(size)
	t.runs = append(t.runs, run)
	s.reset()
	t.buffered = 0
	if t.traced {
		t.spills = append(t.spills, spillProfile{
			dur:     time.Since(spillStart),
			records: t.spilledRecords - recsBefore,
			bytes:   int64(size),
		})
	}
	return nil
}

// placeSegments points each segment, whose Data so far only has the right
// length, at its bytes in data, where the segments lie back to back in
// partition order.
func placeSegments(segs []Segment, data []byte) {
	off := 0
	for p := range segs {
		if segs[p].Pairs == 0 {
			segs[p].Data = nil
			continue
		}
		end := off + len(segs[p].Data)
		segs[p].Data = data[off:end:end]
		off = end
	}
}

// seal sorts (and combines) the buffered pairs of every partition into the
// attempt's in-memory segments, framed into one exactly-sized slab, and
// returns the scratch to the pool. Called once at the end of a successful
// map attempt; the reduce phase then merges t.segs with t.runs.
func (t *taskEmitter) seal() error {
	s := t.scratch
	defer func() {
		s.release()
		t.scratch = nil
		t.buffered = 0
	}()
	s.sort()
	t.segs = make([]Segment, t.nReducers)
	// Without a combiner the slab's size is known, so the pairs are framed
	// straight into it; with one they are framed in the scratch and copied.
	out := s.enc[:0]
	if t.combiner == nil {
		out = make([]byte, 0, s.framed)
	}
	for i := 0; i < len(s.ents); {
		j := partEnd(s.ents, i)
		start := len(out)
		var n int
		var err error
		if out, n, err = t.appendSorted(out, s.ents[i:j]); err != nil {
			return err
		}
		t.segs[s.ents[i].part] = Segment{Pairs: n, Data: out[start:]}
		i = j
	}
	if t.combiner != nil {
		s.enc = out
		if len(out) > 0 {
			out = bytes.Clone(out)
		}
	}
	placeSegments(t.segs, out)
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

// passWriter batches a merge pass's framed pairs into spill writes of up to
// chunk.Max bytes: one lock and one charge per batch, not per pair. A batch
// the node's spill disk cannot hold is written again pair by pair, so the
// pass fails at the very pair, with the very bytes charged before it, that
// writing pair by pair would.
type passWriter struct {
	w    *hdfs.SpillWriter
	buf  []byte // framed pairs not yet written
	ends []int  // the end of each of them in buf
}

func (p *passWriter) add(pair []byte) error {
	if len(p.buf)+len(pair) > chunk.Max && len(p.buf) > 0 {
		if err := p.flush(); err != nil {
			return err
		}
	}
	p.buf = append(p.buf, pair...)
	p.ends = append(p.ends, len(p.buf))
	return nil
}

// flush writes the pending pairs.
func (p *passWriter) flush() error {
	if len(p.buf) == 0 {
		return nil
	}
	_, err := p.w.Write(p.buf)
	if errors.Is(err, hdfs.ErrDiskFull) {
		start := 0
		for _, end := range p.ends {
			if _, err = p.w.Write(p.buf[start:end]); err != nil {
				break
			}
			start = end
		}
	}
	p.buf, p.ends = p.buf[:0], p.ends[:0]
	return err
}

// mergeRuns reduces the number of on-disk run sources to at most factor by
// merging batches of them into new single-segment runs on the attempt's
// local disk, one merge pass per batch (Hadoop's multi-pass external merge
// under io.sort.factor). Merged pairs are copied as they are framed. It
// returns the surviving sources, reordered in place in srcs, plus the
// temporary runs it created, which the caller must release when the reduce
// attempt finishes. In-memory segments never count against the factor.
// Each batch merged is recorded as a merge phase on tsp (nil-safe no-op)
// and passes one fault checkpoint.
func (e *Engine) mergeRuns(srcs []segSource, factor int, tsp *trace.Span, ac *attemptCtx, passes, spilledRecs, spilledBytes *int64) ([]segSource, []*spillRun, error) {
	var temps []*spillRun
	traced := tsp != nil
	var mi mergeIter
	var pw passWriter
	for len(srcs) > factor {
		if err := ac.checkpoint("merge"); err != nil {
			return srcs, temps, err
		}
		var passStart time.Time
		if traced {
			passStart = time.Now()
		}
		mi.srcs = srcs[:factor]
		size := 0
		for i := range mi.srcs {
			size += len(mi.srcs[i].seg.Data)
		}
		if err := mi.start(); err != nil {
			return srcs, temps, err
		}
		w := e.dfs.CreateSpillOn(ac.node)
		w.Grow(size) // the merged run copies exactly its inputs' pairs
		pw.w = w
		nrec := 0
		for {
			ref, ok, err := mi.next()
			if err == nil && ok {
				err = pw.add(mi.framed(ref))
			} else if err == nil {
				err = pw.flush()
			}
			if err != nil {
				w.Abort()
				return srcs, temps, err
			}
			if !ok {
				break
			}
			nrec++
		}
		spill := w.Close()
		run := &spillRun{spill: spill, segs: []Segment{{Pairs: nrec, Data: spill.Slice(0, int(spill.Size()))}}}
		temps = append(temps, run)
		*passes++
		*spilledRecs += int64(nrec)
		*spilledBytes += spill.Size()
		if traced {
			tsp.AddPhase(trace.KindMerge, "merge", time.Since(passStart), int64(nrec), spill.Size())
		}
		srcs = srcs[factor-1:]
		srcs[0] = runSegSource(spill, run.segs[0])
	}
	return srcs, temps, nil
}
