// Cross-layout parity: every catalog query, on every engine family, run
// over the flat triple file and over the hash-of-subject bucketed layout —
// identical rows, counts, and canonical bytes; the same holds with the
// seeded fault plan armed and through the 3-worker loopback cluster. A
// stale layout manifest (dataset version mismatch) must be refused at load
// and the query must fall back to the shuffle path with correct rows.
package integration

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/cluster"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
)

const layoutBuckets = 8

// zeroShuffleQueries are the repeat-joined O-S chains (Q1a, B0, B5) and the
// unbound-object join (B1) whose every join key is the subject hash the
// layout is built over: NTGA runs them without a single shuffled byte.
var zeroShuffleQueries = map[string]bool{"Q1a": true, "B0": true, "B1": true, "B5": true}

// layoutEngines is the cross-layout line-up: the engines that rewrite onto
// the bucketed layout (Hive, both NTGA variants) plus Pig, which ignores it
// — the parity contract holds either way.
func layoutEngines() []engine.QueryEngine {
	return []engine.QueryEngine{
		relmr.NewPig(),
		relmr.NewHive(),
		ntgamr.NewEager(),
		ntgamr.NewLazy(),
	}
}

// canonicalEqual compares two row sets byte-for-byte in canonical order —
// stricter than the multiset check, it pins the exact binding values.
func canonicalEqual(a, b []query.Row) bool {
	ca, cb := query.CanonicalRows(a, false), query.CanonicalRows(b, false)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if len(ca[i]) != len(cb[i]) {
			return false
		}
		for j := range ca[i] {
			if ca[i][j] != cb[i][j] {
				return false
			}
		}
	}
	return true
}

func TestPartitionedLayoutCatalogParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-layout sweep")
	}
	graphs := map[string]*rdf.Graph{}
	for _, cq := range bench.Catalog() {
		cq := cq
		t.Run(cq.ID, func(t *testing.T) {
			g, ok := graphs[cq.Dataset]
			if !ok {
				var err error
				g, err = bench.Dataset(cq.Dataset, 1, 42)
				if err != nil {
					t.Fatal(err)
				}
				graphs[cq.Dataset] = g
			}
			q := enginetest.Compile(t, g, cq.Src)
			want := refengine.Evaluate(q, g)
			for _, eng := range layoutEngines() {
				mr := mapreduce.NewEngine(
					hdfs.New(hdfs.Config{Nodes: 6}),
					mapreduce.EngineConfig{DefaultReducers: 4, SplitRecords: 1024},
				)
				const input = "data/triples"
				if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
					t.Fatal(err)
				}
				part, err := plan.BuildPartitionLayout(mr, input, "part/T", layoutBuckets, g.Version())
				if err != nil {
					t.Fatalf("building layout: %v", err)
				}
				flat, err := engine.Run(eng, mr, q, plan.Source{Base: input})
				if err != nil {
					t.Fatalf("%s flat: %v", eng.Name(), err)
				}
				bucketed, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
				if err != nil {
					t.Fatalf("%s partitioned: %v", eng.Name(), err)
				}
				if flat.IsCount != bucketed.IsCount || flat.Count != bucketed.Count {
					t.Errorf("%s count mismatch: flat %d, partitioned %d", eng.Name(), flat.Count, bucketed.Count)
				}
				if len(flat.Rows) != len(bucketed.Rows) {
					t.Errorf("%s row count: flat %d, partitioned %d", eng.Name(), len(flat.Rows), len(bucketed.Rows))
				}
				if !canonicalEqual(flat.Rows, bucketed.Rows) {
					t.Errorf("%s canonical rows differ between layouts:\n%s",
						eng.Name(), query.DiffRows(flat.Rows, bucketed.Rows, 6))
				}
				if !query.RowsEqual(want, bucketed.Rows) {
					t.Errorf("%s partitioned rows diverge from reference:\n%s",
						eng.Name(), query.DiffRows(want, bucketed.Rows, 6))
				}
				// What the layout buys, in shuffled bytes: it never costs any,
				// every engine that reads it runs at least one cycle map-side,
				// and NTGA's subject-hash O-S chains stop shuffling altogether.
				flatShuffle, partShuffle := flat.Workflow.TotalMapOutputBytes(), bucketed.Workflow.TotalMapOutputBytes()
				mapOnly := 0
				for _, jm := range bucketed.Workflow.Jobs {
					if jm.MapOnly {
						mapOnly++
					}
				}
				if len(bucketed.Rows) == 0 && !bucketed.IsCount {
					t.Errorf("%s returned no rows; the comparison is vacuous", eng.Name())
				}
				if flatShuffle == 0 {
					t.Errorf("%s flat run moved no shuffle bytes; the comparison is vacuous", eng.Name())
				}
				if partShuffle > flatShuffle {
					t.Errorf("%s partitioned shuffled MORE than flat (%d vs %d)", eng.Name(), partShuffle, flatShuffle)
				}
				if eng.Name() != "Pig" && mapOnly == 0 {
					t.Errorf("%s partitioned run has no map-only cycles", eng.Name())
				}
				if strings.HasPrefix(eng.Name(), "NTGA") && zeroShuffleQueries[cq.ID] && partShuffle != 0 {
					t.Errorf("%s partitioned shuffle = %d bytes, want 0", eng.Name(), partShuffle)
				}
			}
		})
	}
}

// TestPartitionedLayoutSurvivesFaults arms the seeded fault plan — attempt
// failures, mid-phase faults, node kills — on both the layout-building job
// and the map-only query run. Recovery must still produce the reference
// rows from the bucketed layout.
func TestPartitionedLayoutSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos rounds")
	}
	engines := []engine.QueryEngine{relmr.NewHive(), ntgamr.NewLazy()}
	for qi, id := range []string{"Q1a", "B0", "B1", "B5", "B7"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		g, err := bench.Dataset(cq.Dataset, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, cq.Src)
		want := refengine.Evaluate(q, g)
		for ei, eng := range engines {
			seed := int64(qi*17 + ei + 1)
			mr := newChaosMR(seed)
			const input = "data/triples"
			if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
				t.Fatal(err)
			}
			part, err := plan.BuildPartitionLayout(mr, input, "part/T", layoutBuckets, g.Version())
			if err != nil {
				t.Fatalf("%s on %s (seed %d): layout build failed under chaos: %v", eng.Name(), id, seed, err)
			}
			res, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
			if err != nil {
				t.Fatalf("%s on %s (seed %d) failed under chaos: %v", eng.Name(), id, seed, err)
			}
			if !query.RowsEqual(want, res.Rows) {
				t.Fatalf("%s on %s (seed %d) differs from reference under chaos:\n%s",
					eng.Name(), id, seed, query.DiffRows(want, res.Rows, 6))
			}
		}
	}
}

// TestPartitionedLayoutClusterParity runs catalog queries through a real
// 3-worker loopback RPC cluster whose master built the bucketed layout at
// boot: the partitioned distributed answer must match the flat distributed
// answer and the reference engine.
func TestPartitionedLayoutClusterParity(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster round")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.NewMaster(cluster.MasterConfig{
		Reducers:         4,
		SplitRecords:     1024,
		PartitionBuckets: layoutBuckets,
		HeartbeatTimeout: 400 * time.Millisecond,
		HeartbeatEvery:   50 * time.Millisecond,
		LeaseEvery:       2 * time.Millisecond,
		LeaseTimeout:     5 * time.Second,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var workers []*cluster.Worker
	for i := 0; i < 3; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2}, nil, m.Addr())
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	c, err := cluster.Dial(nil, m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	for _, id := range []string{"Q1a", "B1"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, cq.Src)
		want := refengine.Evaluate(q, g)
		flat, err := c.Run(ctx, &cluster.RunArgs{Query: cq.Src, Engine: "ntga-lazy", TimeoutMS: 120_000, NoPartition: true})
		if err != nil {
			t.Fatalf("%s flat cluster run: %v", id, err)
		}
		part, err := c.Run(ctx, &cluster.RunArgs{Query: cq.Src, Engine: "ntga-lazy", TimeoutMS: 120_000})
		if err != nil {
			t.Fatalf("%s partitioned cluster run: %v", id, err)
		}
		if !query.RowsEqual(flat.Rows, part.Rows) || !query.RowsEqual(want, part.Rows) {
			t.Errorf("%s: partitioned cluster rows diverge:\n%s", id, query.DiffRows(want, part.Rows, 6))
		}
		ft, pt := append([]string(nil), flat.RowsText...), append([]string(nil), part.RowsText...)
		sort.Strings(ft)
		sort.Strings(pt)
		if len(ft) != len(pt) {
			t.Fatalf("%s: rendered row counts differ (%d vs %d)", id, len(ft), len(pt))
		}
		for i := range ft {
			if ft[i] != pt[i] {
				t.Fatalf("%s: rendered row %d differs:\n flat: %s\n part: %s", id, i, ft[i], pt[i])
			}
		}
		if part.Workflow.TotalMapOutputBytes() != 0 {
			t.Errorf("%s: partitioned cluster run shuffled %d bytes, want 0", id, part.Workflow.TotalMapOutputBytes())
		}
	}
}

// TestStaleLayoutFallsBackToShuffle pins the version-mismatch contract: a
// layout built from a different dataset version must be refused at load
// time with hdfs.ErrLayoutStale, and the query then runs the ordinary
// shuffle path against the flat file with correct rows.
func TestStaleLayoutFallsBackToShuffle(t *testing.T) {
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	mr := mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 4}),
		mapreduce.EngineConfig{DefaultReducers: 4, SplitRecords: 1024},
	)
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.BuildPartitionLayout(mr, input, "part/T", layoutBuckets, "stale-dataset-version"); err != nil {
		t.Fatal(err)
	}
	part, err := plan.LoadPartitioning(mr.DFS(), "part/T", g.Version())
	if !errors.Is(err, hdfs.ErrLayoutStale) {
		t.Fatalf("loading a stale layout: err = %v, want ErrLayoutStale", err)
	}
	if part != nil {
		t.Fatal("stale load returned a usable partitioning")
	}

	// The ntga-run fallback: part stays nil, the run takes the shuffle path.
	cq, err := bench.Lookup("Q1a")
	if err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, cq.Src)
	eng := ntgamr.NewLazy()
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
	if err != nil {
		t.Fatal(err)
	}
	if !query.RowsEqual(refengine.Evaluate(q, g), res.Rows) {
		t.Error("fallback shuffle run diverges from reference")
	}
	if res.Workflow.TotalMapOutputBytes() == 0 {
		t.Error("fallback run moved no shuffle bytes; it did not take the shuffle path")
	}
}
