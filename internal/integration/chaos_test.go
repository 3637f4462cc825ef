// Chaos harness: every catalog query, on every engine family, executed on a
// cluster with the full fault plan armed — legacy pre-body attempt failures,
// mid-phase faults that interrupt attempts holding partial state, node
// deaths that destroy local spill disks, and speculative execution racing
// backup attempts against stragglers. The recovered runs must produce
// exactly the reference engine's rows and leave no attempt-scoped
// temporaries or spill bytes behind.
package integration

import (
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
)

// chaosEngines is the evaluation line-up: both relational baselines plus the
// paper's NTGA variants (eager unnest, full lazy unnest, and the auto
// lazy/partial planner).
func chaosEngines() []engine.QueryEngine {
	return []engine.QueryEngine{
		relmr.NewPig(),
		relmr.NewHive(),
		ntgamr.NewEager(),
		ntgamr.New(ntgamr.LazyFull, 0),
		ntgamr.NewLazy(),
	}
}

// newChaosMR builds a cluster with every fault mechanism armed: mid-phase
// faults (0.2% per checkpoint —
// the big joins' reduce attempts pass 40+ checkpoints through their merge
// passes and group loops, so the per-attempt failure probability compounds
// well beyond the nominal rate) that
// can escalate into killing the attempt's data node, a bounded sort buffer
// so map output actually lives on the node-local spill disks a node kill
// destroys, and speculative execution enabled.
func newChaosMR(seed int64) *mapreduce.Engine {
	return mapreduce.NewEngine(
		hdfs.New(hdfs.Config{Nodes: 6, BlockSize: 1 << 14}),
		mapreduce.EngineConfig{
			SplitRecords:    256,
			DefaultReducers: 4,
			SortBufferBytes: 1 << 10,
			MergeFactor:     4,
			TaskMaxAttempts: 12,
			Speculation:     true,
			Faults: &mapreduce.FaultPlan{
				Rate:            0.002,
				Seed:            seed,
				NodeFailureRate: 0.5,
				MaxNodeKills:    1,
			},
		})
}

func TestChaosCatalogQueriesSurviveFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	var nodeKills, recoveries, retries, killedAttempts, specWins int64
	for qi, cq := range bench.Catalog() {
		g, err := bench.Dataset(cq.Dataset, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, cq.Src)
		want := refengine.Evaluate(q, g)
		for ei, eng := range chaosEngines() {
			seed := int64(qi*31 + ei + 1)
			mr := newChaosMR(seed)
			const input = "data/triples"
			if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
			if err != nil {
				t.Fatalf("%s on %s (seed %d) failed under chaos: %v", eng.Name(), cq.ID, seed, err)
			}
			if !query.RowsEqual(want, res.Rows) {
				t.Fatalf("%s on %s (seed %d) differs from reference under chaos:\n%s",
					eng.Name(), cq.ID, seed, query.DiffRows(want, res.Rows, 6))
			}
			// Recovery must leave no trace: no attempt temporaries, no
			// intermediate files, no residual spill bytes.
			if files := mr.DFS().List(); len(files) != 1 || files[0] != input {
				t.Fatalf("%s on %s (seed %d) left files behind: %v", eng.Name(), cq.ID, seed, files)
			}
			if used := mr.DFS().SpillUsed(); used != 0 {
				t.Fatalf("%s on %s (seed %d) left %d spill bytes on local disks", eng.Name(), cq.ID, seed, used)
			}
			nodeKills += res.Workflow.TotalNodeKills()
			recoveries += res.Workflow.TotalMapOutputRecoveries()
			retries += res.Workflow.TotalTaskRetries()
			killedAttempts += res.Workflow.TotalKilledAttempts()
			specWins += res.Workflow.TotalSpeculativeWins()
		}
	}
	// The sweep as a whole must actually have exercised the machinery it
	// claims to test.
	if retries == 0 {
		t.Error("chaos sweep recorded no task retries")
	}
	if nodeKills == 0 {
		t.Error("chaos sweep killed no nodes")
	}
	if recoveries == 0 {
		t.Error("chaos sweep never recovered lost map output")
	}
	t.Logf("chaos sweep: retries=%d nodeKills=%d mapRecoveries=%d killedAttempts=%d speculativeWins=%d",
		retries, nodeKills, recoveries, killedAttempts, specWins)
}
