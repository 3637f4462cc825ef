package engine

import (
	"io"

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

// DecodeFunc turns one of an engine's final output records into binding
// rows. Execute streams the final file through it record by record, so the
// client never materializes the full output.
type DecodeFunc func(record []byte) ([]query.Row, error)

// Execute runs a planned workflow, decodes the final output, fills in the
// Result, and removes every tracked intermediate file — the tail of Run. On
// workflow failure the partial Result (metrics only) and the error are
// returned. The final file is streamed, not read wholesale: records are
// decoded one at a time and the output counters accumulate as they are
// consumed.
func Execute(mr *mapreduce.Engine, name string, stages []mapreduce.Stage,
	finalFile string, cleaner *Cleaner, counters *mapreduce.Counters,
	decode DecodeFunc) (*Result, error) {

	dfs := mr.DFS()
	dfs.ResetPeak()
	res := &Result{Engine: name}
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

	r, err := dfs.Open(finalFile)
	if err != nil {
		return res, err
	}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		res.OutputRecords++
		res.OutputBytes += int64(len(rec))
		rows, err := decode(rec)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}
