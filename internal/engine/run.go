package engine

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"ntga/internal/chunk"
	"ntga/internal/codec"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// LoadGraph writes a graph's triples into the DFS as the binary triple
// relation every engine scans.
func LoadGraph(dfs *hdfs.DFS, name string, g *rdf.Graph) error {
	w, err := dfs.Create(name)
	if err != nil {
		return err
	}
	var buf codec.Buffer
	for _, t := range g.Triples {
		buf.Reset()
		buf.PutTriple(t)
		if err := w.Append(buf.Bytes()); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return err
	}
	return nil
}

// DecodeFunc decodes one of an engine's final output records: it appends the
// binding rows the record stands for to dst, row after row, each
// len(q.AllVars) IDs wide, and returns the extended slab and the number of
// rows. For a COUNT(*) query it appends nothing, and the number is the
// record's share of the answer. A DecodeFunc may keep scratch state from one
// call to the next, so it belongs to one goroutine.
type DecodeFunc func(dst []rdf.ID, record []byte) (slab []rdf.ID, rows int64, err error)

// Execute runs a planned workflow whose final job — the one writing
// finalFile — hands its records to the caller through a result sink, fills in
// the Result, and removes every tracked intermediate file: the tail of Run.
// Each task attempt of the final job decodes its records as it produces them
// (decoder() gives each attempt its own DecodeFunc); only the attempt that
// wins its task's commit keeps its rows, and Result.Rows is built once, in
// task order — the order the final file's parts would be spliced in. With
// persist the final job also writes finalFile, as every cycle before it
// does, in the same pass. Counters are the workflow's sum. The caller's
// stages are not modified. On workflow failure the partial Result (metrics
// only) and the error are returned.
func Execute(mr *mapreduce.Engine, name string, stages []mapreduce.Stage,
	finalFile string, cleaner *Cleaner,
	q *query.Query, decoder func() DecodeFunc, persist bool) (*Result, error) {

	dfs := mr.DFS()
	dfs.ResetPeak()
	res := &Result{Engine: name, IsCount: q.IsCount()}
	defer cleaner.Clean(mr)

	sink := &resultSink{count: q.IsCount(), decoder: decoder}
	stages, err := withSink(stages, finalFile, sink, persist)
	if err != nil {
		return res, err
	}
	wf, err := mr.RunWorkflowNamed(name, stages)
	res.Workflow = wf
	res.PeakDFSUsed = dfs.PeakUsed()
	res.Counters = wf.TotalCounters()
	if err != nil {
		return res, err
	}
	res.fill(q, sink.tasks)
	return res, nil
}

// withSink returns stages with the job writing finalFile replaced by a copy
// that hands its main output to sink.
func withSink(stages []mapreduce.Stage, finalFile string, sink mapreduce.Sink, persist bool) ([]mapreduce.Stage, error) {
	for si := len(stages) - 1; si >= 0; si-- {
		for ji, job := range stages[si] {
			if job.Output != finalFile {
				continue
			}
			final := *job
			final.Sink, final.Persist = sink, persist
			st := slices.Clone(stages[si])
			st[ji] = &final
			stages = slices.Clone(stages)
			stages[si] = st
			return stages, nil
		}
	}
	return nil, fmt.Errorf("engine: no job writes the final output %s", finalFile)
}

// Decode reads a final output file into res, one record after another: its
// rows, or for a COUNT(*) query its count, and the OutputRecords/OutputBytes
// counters. A query's own final job hands its rows over through Execute's
// sink; this is for outputs that only exist as files (ntgamr.RunBatch's
// per-query outputs, some of which are extra outputs of a shared job).
func Decode(dfs *hdfs.DFS, name string, q *query.Query, decode DecodeFunc, res *Result) error {
	r, err := dfs.Open(name)
	if err != nil {
		return err
	}
	d := &decoded{decode: decode, count: q.IsCount()}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := d.add(rec); err != nil {
			return err
		}
	}
	d.seal()
	res.fill(q, []*decoded{d})
	return nil
}

// slab is one chunk of decoded rows, back to back.
type slab struct {
	ids  []rdf.ID
	rows int64
}

// decoded is what one task's final records (or one file) decoded to. Rows
// are appended straight into ID slabs. A slab holds no pointers, so the
// garbage collector never scans it, and a slab three quarters full is left
// to its rows and a larger one started (chunk.Next), so rows are never
// copied as the result grows.
type decoded struct {
	decode         DecodeFunc
	count          bool
	slabs          []slab
	cur            slab // being filled; sealed into slabs
	records, bytes int64
}

// add decodes one record.
func (d *decoded) add(rec []byte) error {
	d.records++
	d.bytes += int64(len(rec))
	if c := cap(d.cur.ids); !d.count && 4*len(d.cur.ids) >= 3*c {
		if d.cur.rows > 0 {
			d.slabs = append(d.slabs, d.cur)
		}
		d.cur = slab{ids: make([]rdf.ID, 0, chunk.Next(c, 0))}
	}
	var rows int64
	var err error
	if d.cur.ids, rows, err = d.decode(d.cur.ids, rec); err != nil {
		return err
	}
	d.cur.rows += rows
	return nil
}

// seal files the slab being filled.
func (d *decoded) seal() {
	if d.cur.rows > 0 {
		d.slabs = append(d.slabs, d.cur)
	}
	d.cur = slab{}
}

// fill sets res's counters and its rows, or for a COUNT(*) query its count,
// from parts in order. Rows is built once, as views of the slabs, each
// clipped to its own width. A nil part (a task that never committed) is
// skipped.
func (res *Result) fill(q *query.Query, parts []*decoded) {
	var total int64
	for _, p := range parts {
		if p == nil {
			continue
		}
		res.OutputRecords += p.records
		res.OutputBytes += p.bytes
		for _, s := range p.slabs {
			total += s.rows
		}
	}
	switch {
	case q.IsCount():
		res.Count = total
	case total > 0:
		width := len(q.AllVars)
		res.Rows = make([]query.Row, 0, total)
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, s := range p.slabs {
				res.Rows = query.AppendSlabRows(res.Rows, s.ids, width, int(s.rows))
			}
		}
	}
}

// resultSink is the mapreduce.Sink of a query's final job: each task attempt
// decodes its records as they are collected, and the winning attempt of task
// i parks its slabs at tasks[i].
type resultSink struct {
	count   bool
	decoder func() DecodeFunc
	mu      sync.Mutex
	tasks   []*decoded
}

// Attempt implements mapreduce.Sink.
func (s *resultSink) Attempt() mapreduce.SinkAttempt {
	return &sinkAttempt{s: s, d: decoded{count: s.count}}
}

// sinkAttempt is one task attempt's rows. Its decoder is made on the first
// record, so a task with no output costs no decoder.
type sinkAttempt struct {
	s *resultSink
	d decoded
}

// Collect implements mapreduce.Collector.
func (a *sinkAttempt) Collect(rec []byte) error {
	if a.d.decode == nil {
		a.d.decode = a.s.decoder()
	}
	return a.d.add(rec)
}

// Commit implements mapreduce.SinkAttempt.
func (a *sinkAttempt) Commit(task int) {
	a.d.seal()
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	if task >= len(a.s.tasks) {
		a.s.tasks = append(a.s.tasks, make([]*decoded, task+1-len(a.s.tasks))...)
	}
	a.s.tasks[task] = &a.d
}
