package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"ntga/internal/codec"
	"ntga/internal/datagen"
	"ntga/internal/engine"
	"ntga/internal/engines"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/relmr"
)

// Dataset builds the named generator's graph at the given scale factor
// (scale 1 ≈ a few thousand triples — CI size; the paper's datasets are
// reproduced in shape, not in absolute size).
func Dataset(name string, scale int, seed int64) (*rdf.Graph, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "bsbm":
		return datagen.BSBM(datagen.BSBMConfig{Products: 120 * scale, Seed: seed}), nil
	case "lifesci":
		return datagen.LifeSci(datagen.LifeSciConfig{Genes: 150 * scale, MaxMultiplicity: 10, Seed: seed}), nil
	case "infobox":
		return datagen.Infobox(datagen.InfoboxConfig{Entities: 200 * scale, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
}

// GraphBytes returns the encoded size of the triple relation — the "input
// size" capacity ratios are expressed against.
func GraphBytes(g *rdf.Graph) int64 {
	var total int64
	for _, t := range g.Triples {
		total += int64(len(codec.EncodeTriple(t)))
	}
	return total
}

// ClusterSpec describes the simulated cluster an experiment runs on.
type ClusterSpec struct {
	// Nodes is the data-node count (the paper used 5–80 nodes).
	Nodes int
	// Replication is dfs.replication (the paper contrasts 1 and 2).
	Replication int
	// CapacityRatio bounds total cluster capacity as a multiple of the
	// input's physical size (input bytes × replication). Zero means
	// unbounded. The paper's clusters had fixed 20GB/node disks that sat
	// between the NTGA and relational footprints — the ratio reproduces
	// that regime at any scale.
	CapacityRatio float64
	// Reducers per job; zero defaults to 8.
	Reducers int
	// SortBufferBytes bounds each map task's in-memory sort buffer
	// (Hadoop's io.sort.mb): when map output exceeds it, sorted runs spill
	// to node-local disk and are merge-sorted into the reduce phase. Zero
	// means unbounded (no spilling).
	SortBufferBytes int64
}

func (c ClusterSpec) withDefaults() ClusterSpec {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Reducers == 0 {
		c.Reducers = 8
	}
	return c
}

// newCluster builds the MR engine for a dataset of the given encoded size.
func (c ClusterSpec) newCluster(inputBytes int64) *mapreduce.Engine {
	c = c.withDefaults()
	var capacity int64
	if c.CapacityRatio > 0 {
		physical := float64(inputBytes) * float64(c.Replication)
		capacity = int64(physical*c.CapacityRatio) / int64(c.Nodes)
		if capacity < 1 {
			capacity = 1
		}
	}
	// Fine-grained blocks keep placement smooth relative to the scaled-down
	// node capacities (the paper's 256MB blocks vs 20GB disks ≈ 1:80).
	dfs := hdfs.New(hdfs.Config{
		Nodes:           c.Nodes,
		CapacityPerNode: capacity,
		BlockSize:       4 << 10,
		Replication:     c.Replication,
	})
	return mapreduce.NewEngine(dfs, mapreduce.EngineConfig{
		DefaultReducers: c.Reducers,
		SplitRecords:    4096,
		SortBufferBytes: c.SortBufferBytes,
	})
}

// EngineRun is one engine's measured execution of one query.
type EngineRun struct {
	Engine        string
	OK            bool
	Err           string
	FailedJob     string
	Duration      time.Duration
	Cycles        int
	ReadBytes     int64 // map input (HDFS reads)
	ShuffleBytes  int64 // map output
	WriteBytes    int64 // reduce output (HDFS writes, pre-replication)
	OutputRecords int64
	OutputBytes   int64
	PeakDFS       int64
	// Bounded-memory shuffle profile (all zero when SortBufferBytes is
	// unbounded, except PeakSortBuffer which always reports the largest
	// in-memory map-output buffer).
	SpilledBytes   int64
	SpilledRecords int64
	MergePasses    int64
	PeakSortBuffer int64
	// Load-balance profile: the workflow's worst task-duration straggler
	// ratio and worst per-reducer key/byte skew across all jobs (1.0 =
	// perfectly balanced; see mapreduce.TaskSummary and JobMetrics).
	StragglerRatio float64
	ReduceKeySkew  float64
	ReduceByteSkew float64
	Rows           int64
	RowsHash       uint64
	Counters       map[string]int64
	// JobMetrics carries the per-cycle breakdown (Figure 11 zooms into the
	// final join cycle).
	JobMetrics []mapreduce.JobMetrics
	// Planner estimates for the same execution, from the statistics
	// catalog: compare against Cycles and ShuffleBytes to judge the cost
	// model's accuracy.
	EstCycles       int
	EstShuffleBytes int64
}

// QueryReport gathers every engine's run of one query.
type QueryReport struct {
	Query CatalogQuery
	Runs  []EngineRun
}

// Run returns the named engine's run, if present.
func (qr *QueryReport) Run(engineName string) (EngineRun, bool) {
	for _, r := range qr.Runs {
		if r.Engine == engineName {
			return r, true
		}
	}
	return EngineRun{}, false
}

func rowsHash(rows []query.Row) uint64 {
	canon := query.CanonicalRows(rows, false)
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range canon {
		for _, id := range r {
			buf[0] = byte(id)
			buf[1] = byte(id >> 8)
			buf[2] = byte(id >> 16)
			buf[3] = byte(id >> 24)
			buf[4] = 0xFE
			h.Write(buf[:5])
		}
		buf[0] = 0xFF
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// RunQuery loads the graph onto a fresh cluster and runs every engine over
// it in turn. Engine failures (e.g. disk full) are recorded, not returned;
// only harness-level problems (input does not fit, inconsistent results
// across successful engines) produce an error.
func RunQuery(spec ClusterSpec, g *rdf.Graph, cq CatalogQuery, engines []engine.QueryEngine) (QueryReport, error) {
	report := QueryReport{Query: cq}
	mr := spec.newCluster(GraphBytes(g))
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		return report, fmt.Errorf("bench: loading input for %s: %w", cq.ID, err)
	}
	q, err := query.Parse(cq.Src, g.Dict)
	if err != nil {
		return report, fmt.Errorf("bench: compiling %s: %w", cq.ID, err)
	}

	cat := plan.FromGraph(g)
	var refHash uint64
	var refRows int64 = -1
	for _, eng := range engines {
		estCycles, estShuffle := estimateRun(cat, eng, q, input)
		res, runErr := engine.RunPersisted(eng, mr, q, plan.Source{Base: input})
		run := EngineRun{
			Engine:          eng.Name(),
			OK:              runErr == nil,
			Cycles:          res.Workflow.Cycles,
			Duration:        res.Workflow.Duration,
			ReadBytes:       res.Workflow.TotalMapInputBytes(),
			ShuffleBytes:    res.Workflow.TotalMapOutputBytes(),
			WriteBytes:      res.Workflow.TotalReduceOutputBytes(),
			OutputRecords:   res.OutputRecords,
			OutputBytes:     res.OutputBytes,
			PeakDFS:         res.PeakDFSUsed,
			SpilledBytes:    res.Workflow.TotalSpilledBytes(),
			SpilledRecords:  res.Workflow.TotalSpilledRecords(),
			MergePasses:     res.Workflow.TotalMergePasses(),
			PeakSortBuffer:  res.Workflow.MaxPeakSortBufferBytes(),
			StragglerRatio:  res.Workflow.MaxStragglerRatio(),
			ReduceKeySkew:   res.Workflow.MaxReduceKeySkew(),
			ReduceByteSkew:  res.Workflow.MaxReduceByteSkew(),
			Counters:        res.Counters,
			JobMetrics:      res.Workflow.Jobs,
			EstCycles:       estCycles,
			EstShuffleBytes: estShuffle,
		}
		if runErr != nil {
			run.Err = runErr.Error()
			run.FailedJob = res.Workflow.FailedJob
		} else if res.IsCount {
			run.Rows = res.Count
			run.RowsHash = uint64(res.Count)
			if refRows < 0 {
				refRows, refHash = run.Rows, run.RowsHash
			} else if run.Rows != refRows {
				return report, fmt.Errorf("bench: %s on %s counted %d rows, earlier engine counted %d",
					eng.Name(), cq.ID, run.Rows, refRows)
			}
		} else {
			run.Rows = int64(len(res.Rows))
			run.RowsHash = rowsHash(res.Rows)
			if refRows < 0 {
				refRows, refHash = run.Rows, run.RowsHash
			} else if run.Rows != refRows || run.RowsHash != refHash {
				return report, fmt.Errorf("bench: %s on %s returned %d rows (hash %x), earlier engine returned %d (hash %x)",
					eng.Name(), cq.ID, run.Rows, run.RowsHash, refRows, refHash)
			}
		}
		report.Runs = append(report.Runs, run)
	}
	return report, nil
}

// Standard engine line-ups.

// PhiMForScale scales the paper's φ1K partition range to the shrunken
// datasets: partial β-unnest only pays off when several of one group's
// candidates share a bucket, so φ_m must stay proportional to property
// multiplicity × dataset size (at the paper's 10⁹-triple scale, φ1K).
func PhiMForScale(scale int) int {
	if scale < 1 {
		scale = 1
	}
	m := 16 * scale
	if m > ntgamr.DefaultPhiM {
		m = ntgamr.DefaultPhiM
	}
	return m
}

// RelationalEngines returns the Pig- and Hive-style baselines.
func RelationalEngines() []engine.QueryEngine {
	return []engine.QueryEngine{relmr.NewPig(), relmr.NewHive()}
}

// NTGAEngines returns the paper's two NTGA variants at default φ_m.
func NTGAEngines() []engine.QueryEngine {
	return NTGAEnginesPhi(ntgamr.DefaultPhiM)
}

// NTGAEnginesPhi returns the NTGA variants with an explicit φ_m.
func NTGAEnginesPhi(phiM int) []engine.QueryEngine {
	return []engine.QueryEngine{ntgamr.NewEager(), ntgamr.New(ntgamr.LazyAuto, phiM)}
}

// AllEngines returns the full four-engine line-up of Figures 9–14 at
// default φ_m.
func AllEngines() []engine.QueryEngine {
	return append(RelationalEngines(), NTGAEngines()...)
}

// AllEnginesScaled returns the four-engine line-up with φ_m scaled to the
// dataset size.
func AllEnginesScaled(scale int) []engine.QueryEngine {
	return append(RelationalEngines(), NTGAEnginesPhi(PhiMForScale(scale))...)
}

// Fig3Engines returns the case-study line-up.
func Fig3Engines() []engine.QueryEngine {
	return []engine.QueryEngine{relmr.NewSJPerCycle(), relmr.NewSelSJFirst(), ntgamr.NewLazy()}
}

// EngineByName forwards to engines.ByName; benchmark/adapter.go calls it by
// this name.
func EngineByName(name string, phiM int) (engine.QueryEngine, error) {
	return engines.ByName(name, phiM)
}

// estimateRun plans the query with a throwaway cleaner and prices the plan
// against the catalog, so each EngineRun carries the planner's predicted
// cycle count and shuffle volume next to the measured ones. Planning
// failures (an engine rejecting the query shape) yield zero estimates; the
// subsequent Run records the real error.
func estimateRun(cat *plan.Catalog, eng engine.QueryEngine, q *query.Query, input string) (int, int64) {
	var cl engine.Cleaner
	p, err := engine.Plan(eng, q, plan.Source{Base: input}, &cl)
	if err != nil {
		return 0, 0
	}
	cost, _ := plan.Estimate(cat, q, p)
	return cost.Cycles, cost.ShuffleBytes
}
