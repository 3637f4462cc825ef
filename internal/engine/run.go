package engine

import (
	"io"
	"runtime"
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

// Execute runs a planned workflow, decodes the final output (Decode), fills
// in the Result, and removes every tracked intermediate file — the tail of
// Run. On workflow failure the partial Result (metrics only) and the error
// are returned.
func Execute(mr *mapreduce.Engine, name string, stages []mapreduce.Stage,
	finalFile string, cleaner *Cleaner, counters *mapreduce.Counters,
	q *query.Query, decoder func() DecodeFunc) (*Result, error) {

	dfs := mr.DFS()
	dfs.ResetPeak()
	res := &Result{Engine: name, IsCount: q.IsCount()}
	defer cleaner.Clean(mr)

	wf, err := mr.RunWorkflowNamed(name, stages)
	res.Workflow = wf
	res.PeakDFSUsed = dfs.PeakUsed()
	if counters != nil {
		res.Counters = counters.Snapshot()
	}
	if err != nil {
		return res, err
	}
	return res, Decode(dfs, finalFile, q, decoder, res)
}

// minDecodeRange is the fewest final records worth a range of their own. On
// two cores, two ranges decode 1,024 records about a tenth faster than one,
// but 256 records about a tenth slower: below that, the goroutine, the
// range's first slab and the DFS lock its reads contend for cost more than
// they save (BenchmarkDecodeRanges).
const minDecodeRange = 512

// Decode reads a final output file into res: its rows, or for a COUNT(*)
// query its count, and the OutputRecords/OutputBytes counters.
//
// A file of at least 2×minDecodeRange records is cut into contiguous record
// ranges, at most one per CPU, decoded at once on goroutines of their own,
// each by its own decoder(). Decoding is in-process CPU work on a workflow
// that has finished, so it takes no cluster slot. Each range appends rows
// straight into its own ID slabs. A slab holds no pointers, so the garbage
// collector never scans it, and a slab three quarters full is left to its
// rows and a larger one started (chunk.Next), so rows are rarely copied as
// the result grows. Rows is then built once, in file order, as clipped views
// of the slabs. Each range charges the DFS exactly the bytes it reads, so the
// read counters equal a sequential scan's.
func Decode(dfs *hdfs.DFS, name string, q *query.Query, decoder func() DecodeFunc, res *Result) error {
	n, err := dfs.RecordCount(name)
	if err != nil {
		return err
	}
	return decodeRanges(dfs, name, n, max(1, min(runtime.GOMAXPROCS(0), n/minDecodeRange)), q, decoder, res)
}

// slab is one chunk of decoded rows, back to back.
type slab struct {
	ids  []rdf.ID
	rows int64
}

// decodeRange is what one record range decoded to.
type decodeRange struct {
	slabs          []slab
	records, bytes int64
}

// decodeRanges decodes the n records of name in k ranges, the first on the
// calling goroutine.
func decodeRanges(dfs *hdfs.DFS, name string, n, k int, q *query.Query, decoder func() DecodeFunc, res *Result) error {
	parts, errs := make([]decodeRange, k), make([]error, k)
	run := func(i int) {
		off := i * n / k
		errs[i] = parts[i].decode(dfs, name, off, (i+1)*n/k-off, decoder(), q.IsCount())
	}
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	var total int64
	for _, p := range parts {
		res.OutputRecords += p.records
		res.OutputBytes += p.bytes
		for _, s := range p.slabs {
			total += s.rows
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	switch {
	case q.IsCount():
		res.Count = total
	case total > 0:
		width := len(q.AllVars)
		res.Rows = make([]query.Row, 0, total)
		for _, p := range parts {
			for _, s := range p.slabs {
				res.Rows = query.AppendSlabRows(res.Rows, s.ids, width, int(s.rows))
			}
		}
	}
	return nil
}

// decode reads the m records of name from record off into p's slabs.
func (p *decodeRange) decode(dfs *hdfs.DFS, name string, off, m int, decode DecodeFunc, count bool) error {
	r, err := dfs.OpenRange(name, off, m)
	if err != nil {
		return err
	}
	var cur slab // being filled; appended to p.slabs on return
	defer func() { p.slabs = append(p.slabs, cur) }()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		p.records++
		p.bytes += int64(len(rec))
		if c := cap(cur.ids); !count && 4*len(cur.ids) >= 3*c {
			if cur.rows > 0 {
				p.slabs = append(p.slabs, cur)
			}
			cur = slab{ids: make([]rdf.ID, 0, chunk.Next(c, 0))}
		}
		var rows int64
		if cur.ids, rows, err = decode(cur.ids, rec); err != nil {
			return err
		}
		cur.rows += rows
	}
}
