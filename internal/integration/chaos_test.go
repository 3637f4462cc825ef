// Chaos harness: every catalog query, on every engine family, executed on a
// cluster with the full fault plan armed — legacy pre-body attempt failures,
// mid-phase faults that interrupt attempts holding partial state, node
// deaths that destroy local spill disks, and speculative execution racing
// backup attempts against stragglers. The recovered runs must produce
// exactly the reference engine's rows and the fault-free run's counters, and
// leave no attempt-scoped temporaries or spill bytes behind.
package integration

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/explain"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
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
	return mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 6, BlockSize: 1 << 14}), chaosConfig(seed))
}

func chaosConfig(seed int64) mapreduce.EngineConfig {
	return mapreduce.EngineConfig{
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
	}
}

// faultFree runs the query on a fault-free engine of cfg's shape: the
// counters every faulty run of it must reproduce. Its sort buffer is
// unbounded, which keeps the reference run cheap; counts do not depend on
// where map output spills.
func faultFree(t *testing.T, eng engine.QueryEngine, g *rdf.Graph, q *query.Query, cfg mapreduce.EngineConfig) *engine.Result {
	t.Helper()
	cfg.Faults, cfg.Speculation, cfg.SortBufferBytes = nil, false, 0
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 6, BlockSize: 1 << 14}), cfg)
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
	if err != nil {
		t.Fatalf("%s fault-free: %v", eng.Name(), err)
	}
	return res
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
			// Each task counts once, by its winning attempt.
			if clean := faultFree(t, eng, g, q, chaosConfig(seed)); !maps.Equal(clean.Counters, res.Counters) {
				t.Errorf("%s on %s (seed %d): counters %v under chaos, %v fault-free",
					eng.Name(), cq.ID, seed, res.Counters, clean.Counters)
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

// TestChaosCountersMatchFaultFree: at a fault rate where most attempts of a
// scale-1 bsbm query fail somewhere, NTGA's counters still read exactly as
// in the fault-free run, on every bsbm catalog query.
func TestChaosCountersMatchFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.EngineConfig{SplitRecords: 200, TaskMaxAttempts: 32,
		Faults: &mapreduce.FaultPlan{Rate: 0.05, Seed: 7}}
	var retries int64
	for _, cq := range bench.Catalog() {
		if cq.Dataset != "bsbm" {
			continue
		}
		q := enginetest.Compile(t, g, cq.Src)
		for _, eng := range []engine.QueryEngine{ntgamr.NewLazy(), ntgamr.NewEager()} {
			clean := faultFree(t, eng, g, q, cfg)
			mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 6, BlockSize: 1 << 14}), cfg)
			const input = "data/triples"
			if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(eng, mr, q, plan.Source{Base: input})
			if err != nil {
				t.Fatalf("%s on %s: %v", eng.Name(), cq.ID, err)
			}
			if !query.RowsEqual(clean.Rows, res.Rows) {
				t.Fatalf("%s on %s: rows differ from the fault-free run", eng.Name(), cq.ID)
			}
			if !maps.Equal(clean.Counters, res.Counters) {
				t.Errorf("%s on %s: counters %v under faults, %v fault-free",
					eng.Name(), cq.ID, res.Counters, clean.Counters)
			}
			retries += res.Workflow.TotalTaskRetries()
		}
	}
	if retries == 0 {
		t.Error("the fault plan retried no attempt")
	}
}

// TestChaosSinkExactlyOnce: faults that land in the final job — failed
// attempts, speculative rivals, a node kill — leave the caller's rows
// exactly once. Every engine runs flat and over a bucketed layout; each cell
// retries seeds until its final job has actually failed attempts, and every
// run is checked. The rows are the reference engine's, with no duplicate; a
// losing attempt leaves nothing behind (no _tmp/ file, no final file), and
// the final job writes nothing to the DFS.
func TestChaosSinkExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	const (
		input    = "data/triples"
		dir      = "part/T"
		maxSeeds = 40
	)
	// A fault-dense plan: the final job of a scale-1 query passes few
	// checkpoints, so the per-checkpoint rate is well above newChaosMR's, and
	// stragglers are common enough that the final job's own tasks get
	// speculative rivals, whose losers must leave the sink untouched.
	newMR := func(seed int64) *mapreduce.Engine {
		return mapreduce.NewEngine(
			hdfs.New(hdfs.Config{Nodes: 6, BlockSize: 1 << 14}),
			mapreduce.EngineConfig{
				SplitRecords:          512,
				DefaultReducers:       4,
				SortBufferBytes:       1 << 10,
				MergeFactor:           4,
				TaskMaxAttempts:       16,
				Speculation:           true,
				SpeculationMinRuntime: time.Millisecond,
				Faults: &mapreduce.FaultPlan{
					Rate:            0.03,
					Seed:            seed,
					NodeFailureRate: 0.3,
					MaxNodeKills:    1,
					StragglerRate:   0.1,
					StragglerDelay:  5 * time.Millisecond,
				},
			})
	}
	var finalRetries, finalKills, finalSpec int64
	for _, id := range []string{"Q1a", "B1"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, cq.Src)
		want := refengine.Evaluate(q, g)
		for _, eng := range explain.Engines() {
			for _, bucketed := range []bool{false, true} {
				label := fmt.Sprintf("%s on %s (bucketed %v)", eng.Name(), id, bucketed)
				if _, err := engine.Plan(eng, q, plan.Source{Base: input}, new(engine.Cleaner)); err != nil {
					continue // Sel-SJ-first plans bound-only two-star queries alone
				}
				hit := false
				for seed := int64(1); seed <= maxSeeds && !hit; seed++ {
					mr := newMR(seed)
					if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
						t.Fatal(err)
					}
					src := plan.Source{Base: input}
					if bucketed {
						if src.Part, err = plan.BuildPartitionLayout(mr, input, dir, 4, g.Version()); err != nil {
							t.Fatalf("%s seed %d: layout: %v", label, seed, err)
						}
					}
					before := mr.DFS().ListPrefix("")
					res, err := engine.Run(eng, mr, q, src)
					if err != nil {
						t.Fatalf("%s seed %d: %v", label, seed, err)
					}
					if len(res.Rows) != len(want) || !query.RowsEqual(want, res.Rows) {
						t.Fatalf("%s seed %d: %d rows, want the reference's %d:\n%s",
							label, seed, len(res.Rows), len(want), query.DiffRows(want, res.Rows, 6))
					}
					if after := mr.DFS().ListPrefix(""); !slices.Equal(before, after) {
						t.Fatalf("%s seed %d: files before the run %v, after %v", label, seed, before, after)
					}
					if tmp := mr.DFS().ListPrefix("_tmp/"); len(tmp) != 0 {
						t.Fatalf("%s seed %d: attempt temporaries left: %v", label, seed, tmp)
					}
					final := res.Workflow.Jobs[len(res.Workflow.Jobs)-1]
					if !final.Sunk || final.ReduceOutputBytes != 0 {
						t.Fatalf("%s seed %d: final job sunk=%v wrote %d bytes", label, seed, final.Sunk, final.ReduceOutputBytes)
					}
					if final.TaskRetries > 0 {
						hit = true
						finalRetries += final.TaskRetries
						finalKills += final.NodeKills
						finalSpec += final.SpeculativeLaunched
					}
				}
				if !hit {
					t.Errorf("%s: no seed up to %d failed an attempt of the final job", label, maxSeeds)
				}
			}
		}
	}
	if finalKills == 0 || finalSpec == 0 {
		t.Errorf("final jobs saw %d retries, %d node kills, %d speculative attempts; want all three",
			finalRetries, finalKills, finalSpec)
	}
	t.Logf("final jobs: %d retries, %d node kills, %d speculative attempts", finalRetries, finalKills, finalSpec)
}
