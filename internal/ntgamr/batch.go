package ntgamr

import (
	"fmt"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
)

// Multi-query scan sharing. NTGA's grouping operator is query-agnostic up
// to the relevance filter, so a batch of queries over the same triple
// relation can share one grouping cycle: the map side scans the input once
// (emitting triples relevant to any query in the batch), and the reduce
// side applies every query's β group-filter to each subject triplegroup,
// routing the resulting AnnTGs to one output file per query (Hadoop's
// MultipleOutputs). Subsequent join cycles are per-query but independent,
// so the workflow runs them concurrently — stage k holds the k-th join of
// every query that has one.
//
// This extends the NTGA scan-sharing idea the paper builds on (its
// reference [18]) across queries: for a batch of n queries the triple
// relation is scanned once instead of n times, and each query's join
// cycles read only that query's triplegroups.

// BatchResult is the outcome of a shared-scan batch execution.
type BatchResult struct {
	// Results holds one result per input query, in order. Rows (or Count)
	// are populated per query; the workflow metrics of the shared run live
	// in Workflow, not in the per-query results.
	Results []*engine.Result
	// Workflow carries the whole batch's cost profile: one grouping cycle
	// plus every query's join cycles.
	Workflow mapreduce.WorkflowMetrics
	// PeakDFSUsed is the batch's disk high-water mark.
	PeakDFSUsed int64
}

// batchGroupMapper emits triples relevant to any query in the batch.
type batchGroupMapper struct {
	qs []*query.Query
}

func (m *batchGroupMapper) Map(_ string, record []byte, out mapreduce.Emitter) error {
	t, err := codec.DecodeTriple(record)
	if err != nil {
		return err
	}
	for _, q := range m.qs {
		if q.TripleRelevant(t) {
			return emitBySubject(t, out)
		}
	}
	return nil
}

// batchGroupReducer applies every query's TG_UnbGrpFilter to the subject
// group, routing each query's AnnTGs to its own output file.
type batchGroupReducer struct {
	qs      []*query.Query
	outputs []string // outputs[0] is the job's main output
	eager   bool
}

func (r *batchGroupReducer) Reduce(key []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	s := core.GetScratch()
	defer s.Release()
	tg, err := readGroup(s, key, values)
	if err != nil {
		return err
	}
	out.Inc(CounterGroups, 1)
	for qid, q := range r.qs {
		err := filterGroup(s, q, tg, r.eager, out, func(_ []core.AnnTG, rec []byte) error {
			if qid == 0 {
				return out.Collect(rec)
			}
			nc, ok := out.(mapreduce.NamedCollector)
			if !ok {
				return fmt.Errorf("ntgamr: collector lacks MultipleOutputs support")
			}
			return nc.CollectTo(r.outputs[qid], rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RunBatch executes a batch of compiled queries with one shared grouping
// cycle. Queries must be compiled against the same dictionary/input.
// COUNT(*) queries are answered from the implicit representation as in Run.
func (n *NTGA) RunBatch(mr *mapreduce.Engine, qs []*query.Query, input string) (*BatchResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("ntgamr: empty batch")
	}
	var cl engine.Cleaner
	defer cl.Clean(mr)
	dfs := mr.DFS()
	dfs.ResetPeak()

	grouped := make([]string, len(qs))
	for qi := range qs {
		grouped[qi] = cl.Track(engine.TempName(n.name, fmt.Sprintf("batch-group-q%d", qi)))
	}
	groupJob := &mapreduce.Job{
		Name:         "ntga-batch-group",
		Inputs:       []string{input},
		Output:       grouped[0],
		ExtraOutputs: grouped[1:],
		Mapper:       &batchGroupMapper{qs: qs},
		StreamReducer: &batchGroupReducer{qs: qs, outputs: grouped,
			eager: n.strategy == Eager},
	}
	stages := []mapreduce.Stage{{groupJob}}

	// Per-query join chains; stage k+1 holds join k of every query.
	maxJoins := 0
	for _, q := range qs {
		if len(q.Joins) > maxJoins {
			maxJoins = len(q.Joins)
		}
	}
	accs := make([]string, len(qs))
	copy(accs, grouped)
	for ji := 0; ji < maxJoins; ji++ {
		var stage mapreduce.Stage
		for qi, q := range qs {
			if ji >= len(q.Joins) {
				continue
			}
			out := cl.Track(engine.TempName(n.name, fmt.Sprintf("batch-q%d-join%d", qi, ji)))
			j := q.Joins[ji]
			mode := n.joinModeFor(q, j)
			stage = append(stage, tgJoinJob(q, fmt.Sprintf("%s-batch-q%d-join%d", n.name, qi, ji),
				j, mode, n.phiM, accs[qi], grouped[qi], out))
			accs[qi] = out
		}
		stages = append(stages, stage)
	}

	wf, err := mr.RunWorkflow(stages)
	res := &BatchResult{Workflow: wf, PeakDFSUsed: dfs.PeakUsed()}
	if err != nil {
		return res, err
	}

	for qi, q := range qs {
		r := &engine.Result{Engine: n.name, Counters: wf.TotalCounters(), IsCount: q.IsCount()}
		// No COUNT fold here: a counting query's final records are its joined
		// triplegroups, counted without expansion. A query without joins ends
		// in an extra output of the shared grouping job, so every query's
		// output is a file, decoded after the workflow.
		if err := engine.Decode(dfs, accs[qi], q, joinedDecoder(q), r); err != nil {
			return res, err
		}
		res.Results = append(res.Results, r)
	}
	return res, nil
}
