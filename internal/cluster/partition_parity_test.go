// Partitioned-layout execution over the distributed cluster: the same query
// run flat (NoPartition) and over the master's bucketed layout must agree
// row-for-row, the map-only cycles must move zero shuffle bytes, and the
// lease scheduler must show bucket affinity.
package cluster_test

import (
	"context"
	"sort"
	"testing"
	"time"

	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/query"
	"ntga/internal/refengine"
)

var partitionQueries = []struct {
	name string
	src  string
	// mapOnlyJobs is how many leading workflow jobs must be shuffle-free
	// on the partitioned path (group cycle + served joins).
	mapOnlyJobs int
	// allMapOnly marks a fully-served SELECT chain: zero shuffle overall.
	allMapOnly bool
}{
	{"OS join chain", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`, 2, true},
	{"OO join falls back", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`, 1, false},
	{"unbound-object join", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`, 2, true},
	{"count over served join", `
PREFIX ex: <http://ex/>
SELECT (COUNT(*) AS ?n) WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:type ?t .
}`, 2, false},
}

func sortedText(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func TestClusterPartitionedParity(t *testing.T) {
	ctx := context.Background()
	g := enginetest.BioGraph()
	tc := startTestCluster(t, g, 3,
		cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit, PartitionBuckets: 4})

	for _, pq := range partitionQueries {
		t.Run(pq.name, func(t *testing.T) {
			flat, err := tc.client.Run(ctx, &cluster.RunArgs{
				Query: pq.src, Engine: "ntga-lazy", TimeoutMS: 60_000, NoPartition: true,
			})
			if err != nil {
				t.Fatalf("flat run: %v", err)
			}
			part, err := tc.client.Run(ctx, &cluster.RunArgs{
				Query: pq.src, Engine: "ntga-lazy", TimeoutMS: 60_000,
			})
			if err != nil {
				t.Fatalf("partitioned run: %v", err)
			}
			if flat.IsCount != part.IsCount || flat.Count != part.Count {
				t.Errorf("count mismatch: flat %d, partitioned %d", flat.Count, part.Count)
			}
			if !query.RowsEqual(flat.Rows, part.Rows) {
				t.Errorf("rows differ:\n%s", query.DiffRows(flat.Rows, part.Rows, 5))
			}
			ft, pt := sortedText(flat.RowsText), sortedText(part.RowsText)
			if len(ft) != len(pt) {
				t.Fatalf("rendered rows: flat %d, partitioned %d", len(ft), len(pt))
			}
			for i := range ft {
				if ft[i] != pt[i] {
					t.Fatalf("rendered row %d differs:\n flat: %s\n part: %s", i, ft[i], pt[i])
				}
			}
			if !part.IsCount {
				q := enginetest.Compile(t, g, pq.src)
				if !query.RowsEqual(refengine.Evaluate(q, g), part.Rows) {
					t.Error("partitioned rows diverge from reference")
				}
			}
			for i := 0; i < pq.mapOnlyJobs && i < len(part.Workflow.Jobs); i++ {
				jm := part.Workflow.Jobs[i]
				if !jm.MapOnly {
					t.Errorf("job %d (%s) not map-only", i, jm.Job)
				}
				if jm.MapOutputBytes != 0 {
					t.Errorf("job %d (%s) shuffled %d bytes", i, jm.Job, jm.MapOutputBytes)
				}
			}
			if pq.allMapOnly {
				if got := part.Workflow.TotalMapOutputBytes(); got != 0 {
					t.Errorf("TotalMapOutputBytes = %d, want 0", got)
				}
			}
			if flat.Workflow.TotalMapOutputBytes() == 0 && !flat.IsCount {
				t.Error("flat baseline moved no shuffle bytes; test is vacuous")
			}
		})
	}
}

// TestClusterBucketAffinity runs a partitioned multi-join query on a single
// worker: every bucket of the join cycles was already processed by that
// worker in the group cycle, so the scheduler must record affine leases.
func TestClusterBucketAffinity(t *testing.T) {
	ctx := context.Background()
	g := enginetest.BioGraph()
	tc := startTestCluster(t, g, 1,
		cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit, PartitionBuckets: 4})

	if _, err := tc.client.Run(ctx, &cluster.RunArgs{
		Query:     partitionQueries[0].src,
		Engine:    "ntga-lazy",
		TimeoutMS: 60_000,
	}); err != nil {
		t.Fatal(err)
	}
	st := tc.master.Status()
	if st.AffineLeases == 0 {
		t.Error("no affine leases recorded for bucket-aligned join cycles")
	}
}

// TestClusterPartitionedKillRecovery kills a worker while a partitioned
// query is in flight; the run must still match the flat answer.
func TestClusterPartitionedKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed kill round")
	}
	ctx := context.Background()
	g := enginetest.BioGraph()
	tc := startTestCluster(t, g, 3,
		cluster.WorkerConfig{MapSlots: 1, ReduceSlots: 1, TaskDelay: 10 * time.Millisecond},
		cluster.MasterConfig{Reducers: parityReducers, SplitRecords: paritySplit, PartitionBuckets: 8})

	src := partitionQueries[0].src
	q := enginetest.Compile(t, g, src)
	want := refengine.Evaluate(q, g)

	type outcome struct {
		reply *cluster.RunReply
		err   error
	}
	resCh := make(chan outcome, 1)
	go func() {
		reply, err := tc.client.Run(ctx, &cluster.RunArgs{
			Query: src, Engine: "ntga-lazy", TimeoutMS: 120_000,
		})
		resCh <- outcome{reply, err}
	}()
	// Land the kill mid-query when the timing allows; if the query wins the
	// race the run is still a (vacuous) parity check.
	time.Sleep(30 * time.Millisecond)
	tc.workers[2].Close()

	o := <-resCh
	if o.err != nil {
		t.Fatalf("partitioned query did not survive the worker kill: %v", o.err)
	}
	if !query.RowsEqual(want, o.reply.Rows) {
		t.Errorf("post-kill partitioned rows diverge from reference:\n%s", query.DiffRows(want, o.reply.Rows, 5))
	}
}
