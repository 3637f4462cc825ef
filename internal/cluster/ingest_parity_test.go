// Distributed ingest parity: the warehouse of a live 3-worker cluster's
// master accepts N-Triples batches mid-serving, queries see base ∪ delta rows byte-identical to a
// local run over the same versioned store, workers learn newly minted
// dictionary terms lazily (Master.Sync), and delta-merge compaction leaves
// the servable content — and every row — unchanged.
package cluster_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
)

const ingestParityBatch = `<http://ex/gene1> <http://ex/xGO> <http://ex/go0> .
<http://ex/gene9> <http://ex/label> "gene 9 label" .
<http://ex/gene9> <http://ex/xGO> <http://ex/go7> .
<http://ex/go7> <http://ex/label> "go term 7" .
<http://ex/go7> <http://ex/type> <http://ex/GOTerm> .
`

const ingestParityQuery = `PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?gl . ?g ex:xGO ?go . ?go ex:label ?gol . }`

// newTermQuery pins a constant minted by the batch: a worker that has not
// synced the ingested dictionary terms cannot even compile it correctly.
const newTermQuery = `PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:xGO ex:go7 . ?g ex:label ?gl . }`

// runLocalDeltas is the local reference for the distributed delta overlay:
// an identically-built graph (same construction order, so the dictionaries
// assign identical IDs), the same versioned store, the same engine knobs.
func runLocalDeltas(t *testing.T, src string, batches []string) *engine.Result {
	t.Helper()
	g := enginetest.BioGraph()
	mr := mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 8}),
		mapreduce.EngineConfig{DefaultReducers: parityReducers, SplitRecords: paritySplit},
	)
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	st, err := ingest.Init(mr.DFS(), input, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := st.Ingest(strings.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	q := enginetest.Compile(t, g, src)
	eng, err := bench.EngineByName("ntga-lazy", 0)
	if err != nil {
		t.Fatal(err)
	}
	man := st.Manifest()
	res, err := engine.Run(eng, mr, q, plan.Source{Base: man.Base, Deltas: man.DeltaFiles()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedIngestParity(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed ingest round")
	}
	ctx := context.Background()
	g := enginetest.BioGraph()
	tc := startTestCluster(t, g, 3,
		cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit})

	// The warehouse's writers run in-process, as a hosting ntga-serve runs
	// them; the fleet learns of every write over its RPC alone.
	wh := tc.master.Warehouse()
	compact := func() (*ingest.CompactResult, error) {
		return wh.Compact(mapreduce.NewEngine(tc.master.DFS(), mapreduce.EngineConfig{DefaultReducers: parityReducers, SplitRecords: paritySplit}))
	}
	run := func(src string) *cluster.RunReply {
		t.Helper()
		reply, err := tc.client.Run(ctx, &cluster.RunArgs{
			Query:        src,
			Engine:       "ntga-lazy",
			Reducers:     parityReducers,
			SplitRecords: paritySplit,
			TimeoutMS:    120_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// Prime the fleet on the boot version so the ingest lands on workers
	// holding cached plans and a pre-ingest dictionary.
	before := run(ingestParityQuery)
	st := tc.master.Status()
	bootVer := st.DatasetVersion

	reply, err := wh.Ingest(strings.NewReader(ingestParityBatch))
	if err != nil {
		t.Fatal(err)
	}
	if blocks := len(wh.View().Source.Deltas); len(reply.Triples) != 5 || blocks != 1 {
		t.Fatalf("ingest = %d triples / %d blocks, want 5 triples / 1 block", len(reply.Triples), blocks)
	}
	if reply.Version == bootVer {
		t.Error("ingest did not move the cluster dataset version")
	}
	st = tc.master.Status()
	if st.DatasetVersion != reply.Version {
		t.Errorf("status version %s != ingest version %s", st.DatasetVersion, reply.Version)
	}

	// The overlay query sees the delta rows, byte-identical to the local
	// versioned store.
	after := run(ingestParityQuery)
	localAfter := runLocalDeltas(t, ingestParityQuery, []string{ingestParityBatch})
	if len(after.Rows) <= len(before.Rows) {
		t.Errorf("rows %d -> %d across ingest, want growth from the delta", len(before.Rows), len(after.Rows))
	}
	if !sameRows(localAfter.Rows, after.Rows) {
		t.Errorf("distributed delta rows not byte-identical to local (local %d, distributed %d)",
			len(localAfter.Rows), len(after.Rows))
	}

	// A query pinning a term the batch minted forces every worker through
	// the dictionary sync path before it can rebuild the plan.
	newTerm := run(newTermQuery)
	localNew := runLocalDeltas(t, newTermQuery, []string{ingestParityBatch})
	if len(newTerm.Rows) == 0 {
		t.Error("query over the ingested term returned no rows (stale worker dictionaries?)")
	}
	if !sameRows(localNew.Rows, newTerm.Rows) {
		t.Errorf("new-term rows not byte-identical to local (local %d, distributed %d)",
			len(localNew.Rows), len(newTerm.Rows))
	}

	// Compaction folds the chain without changing content: the version and
	// every row stay put, and the plan goes back to map-only-eligible shape.
	cres, err := compact()
	if err != nil {
		t.Fatal(err)
	}
	if cres.Folded != 1 || cres.FoldedTriples != 5 {
		t.Errorf("compaction = %+v, want 1 block / 5 triples folded", cres)
	}
	st = tc.master.Status()
	if st.DatasetVersion != reply.Version {
		t.Errorf("compaction moved the dataset version %s -> %s", reply.Version, st.DatasetVersion)
	}
	compacted := run(ingestParityQuery)
	if !sameRows(after.Rows, compacted.Rows) {
		t.Error("post-compaction rows differ from delta-overlay rows")
	}

	// A second ingest on top of the compacted base keeps the chain going.
	if _, err := wh.Ingest(strings.NewReader("<http://ex/gene9> <http://ex/xGO> <http://ex/go0> .\n")); err != nil {
		t.Fatal(err)
	}
	if blocks := len(wh.View().Source.Deltas); blocks != 1 {
		t.Errorf("post-compaction ingest chain length = %d, want 1", blocks)
	}
	final := run(ingestParityQuery)
	localFinal := runLocalDeltas(t, ingestParityQuery, []string{ingestParityBatch, "<http://ex/gene9> <http://ex/xGO> <http://ex/go0> .\n"})
	if !sameRows(localFinal.Rows, final.Rows) {
		t.Error("second-generation delta rows not byte-identical to local")
	}
	if !query.RowsEqual(localFinal.Rows, final.Rows) {
		t.Error("second-generation delta rows diverge as multisets")
	}
}

// TestMasterQueriesDuringIngestAndCompact: queries plan from one warehouse
// view while ingests and compactions install new ones. Two query loops run
// over a bucketed master while the test ingests and compacts three times;
// under -race this catches any writer that touches state a running query
// planned from (compaction once re-stamped the layout a query was reading).
// Afterwards the layout path and the flat path agree on the merged data.
func TestMasterQueriesDuringIngestAndCompact(t *testing.T) {
	ctx := context.Background()
	tc := startTestCluster(t, enginetest.BioGraph(), 2,
		cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit, PartitionBuckets: 4})
	wh := tc.master.Warehouse()
	mr := mapreduce.NewEngine(tc.master.DFS(), mapreduce.EngineConfig{DefaultReducers: parityReducers, SplitRecords: paritySplit})
	run := func(noPartition bool) (*cluster.RunReply, error) {
		return tc.client.Run(ctx, &cluster.RunArgs{
			Query: ingestParityQuery, Engine: "ntga-lazy", TimeoutMS: 30_000, NoPartition: noPartition,
		})
	}

	var done atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := run(false); err != nil {
					errs <- err
					return
				}
				done.Add(1)
			}
		}()
	}
	// Each round ingests one batch, then compacts over and over until four
	// more queries have finished: the first compaction folds the batch, the
	// rest find an empty chain and only install a fresh view, so writes keep
	// landing while queries that planned from an earlier view still run.
	for i := 0; i < 3; i++ {
		batch := fmt.Sprintf("<http://ex/gene%d> <http://ex/xGO> <http://ex/go%d> .\n<http://ex/gene%d> <http://ex/label> \"gene %d\" .\n", 20+i, i, 20+i, 20+i)
		if _, err := wh.Ingest(strings.NewReader(batch)); err != nil {
			t.Fatal(err)
		}
		for n := done.Load(); done.Load() < n+4 && len(errs) == 0; {
			if _, err := wh.Compact(mr); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query during ingest/compact: %v", err)
	}

	part, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sortedText(flat.RowsText), sortedText(part.RowsText)) || part.Workflow.TotalMapOutputBytes() != 0 {
		t.Errorf("after compaction: layout rows %d (shuffle %d bytes), flat rows %d",
			len(part.Rows), part.Workflow.TotalMapOutputBytes(), len(flat.Rows))
	}
}
