package cluster_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/query"
)

// TestClusterSinkMatchesLocal: the master hands the final job's committed
// task outputs to the result sink in task order, so a distributed run
// returns the local run's rows byte for byte — and the same final output
// size — while its final job writes nothing to the master's DFS. Queries run
// concurrently, so sinks fill beside each other (meant for -race too); the
// DFS holds exactly the dataset afterwards.
func TestClusterSinkMatchesLocal(t *testing.T) {
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	tc := startTestCluster(t, g, 3, cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit})
	before := tc.master.DFS().ListPrefix("")
	count := `PREFIX bsbm: <http://bsbm.example.org/> SELECT (COUNT(*) AS ?n) WHERE {
  ?prod bsbm:label ?l . ?prod ?p ?x . ?x bsbm:country ?c . }`
	srcs := []string{count}
	for _, id := range []string{"Q1a", "B1"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, cq.Src)
	}
	var wg sync.WaitGroup
	for _, src := range srcs {
		q := enginetest.Compile(t, g, src)
		for _, en := range []string{"hive", "ntga-lazy"} {
			local, err := runLocal(t, g, q, en)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				label := fmt.Sprintf("%s %.40q", en, src)
				reply, err := tc.client.Run(context.Background(), &cluster.RunArgs{
					Query: src, Engine: en, Reducers: parityReducers, SplitRecords: paritySplit, TimeoutMS: 120_000,
				})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				if !slices.EqualFunc(local.Rows, reply.Rows, query.Row.Equal) || local.Count != reply.Count {
					t.Errorf("%s: %d rows (count %d) distributed, %d (count %d) local",
						label, len(reply.Rows), reply.Count, len(local.Rows), local.Count)
				}
				if local.OutputRecords != reply.OutputRecords || local.OutputBytes != reply.OutputBytes {
					t.Errorf("%s: output %d records / %d bytes distributed, %d / %d local", label,
						reply.OutputRecords, reply.OutputBytes, local.OutputRecords, local.OutputBytes)
				}
				jobs := reply.Workflow.Jobs
				if f := jobs[len(jobs)-1]; !f.Sunk || f.ReduceOutputBytes != 0 || f.ReduceOutputRecords != 0 {
					t.Errorf("%s: final job sunk=%v wrote %d records / %d bytes, want nothing",
						label, f.Sunk, f.ReduceOutputRecords, f.ReduceOutputBytes)
				}
			}()
		}
	}
	wg.Wait()
	if after := tc.master.DFS().ListPrefix(""); !slices.Equal(before, after) {
		t.Errorf("master DFS held %v before the queries, %v after", before, after)
	}
}
