package bench

import (
	"fmt"

	"ntga/internal/engine"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/relmr"
	"ntga/internal/sparql"
	"ntga/internal/stats"
)

// partitionWorkload is the repeat-joined slice of the catalog the layout
// experiment replays: subject-bound O-S chains (Q1a, B0), the unbound-object
// join (B1), and the three-star chains (B5, B7). These are the queries whose
// join keys land on the subject hash the bucketed layout is built over.
var partitionWorkload = []string{"Q1a", "B0", "B1", "B5", "B7"}

// PartitionRow is one (query, engine) cell of the layout experiment: the
// same query run over the flat triple file and over the hash-of-subject
// bucketed layout, on the same cluster. These rows are what
// BENCH_partition.json persists across commits.
type PartitionRow struct {
	Query  string `json:"query"`
	Engine string `json:"engine"`
	// Flat-layout measurements.
	FlatCycles       int   `json:"flat_cycles"`
	FlatShuffleBytes int64 `json:"flat_shuffle_bytes"`
	// Partitioned-layout measurements.
	PartCycles       int   `json:"part_cycles"`
	PartShuffleBytes int64 `json:"part_shuffle_bytes"`
	// MapOnlyJobs counts the partitioned workflow's shuffle-free cycles.
	MapOnlyJobs int   `json:"map_only_jobs"`
	Rows        int64 `json:"rows"`
}

// PartitionDoc is the persisted layout comparison (BENCH_partition.json):
// enough identity to compare across history, plus the per-cell rows.
type PartitionDoc struct {
	Commit  string         `json:"commit"`
	Dataset string         `json:"dataset"`
	Scale   int            `json:"scale"`
	Seed    int64          `json:"seed"`
	Buckets int            `json:"buckets"`
	Rows    []PartitionRow `json:"rows"`
}

// ComparePartitionBaseline fails if any cell lost its zero-shuffle property
// or regressed its partitioned shuffle volume more than tolerance against
// the matching baseline cell. Cells are matched by (query, engine); cells
// missing from either side are ignored, so extending the workload never
// breaks the gate.
func ComparePartitionBaseline(baseline, current *PartitionDoc, tolerance float64) error {
	base := make(map[string]PartitionRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Query+"/"+r.Engine] = r
	}
	for _, r := range current.Rows {
		b, ok := base[r.Query+"/"+r.Engine]
		if !ok {
			continue
		}
		if b.PartShuffleBytes == 0 && r.PartShuffleBytes != 0 {
			return fmt.Errorf("partition gate %s/%s: layout no longer shuffle-free (%d bytes; baseline commit %s)",
				r.Query, r.Engine, r.PartShuffleBytes, baseline.Commit)
		}
		if limit := float64(b.PartShuffleBytes) * (1 + tolerance); b.PartShuffleBytes > 0 && float64(r.PartShuffleBytes) > limit {
			return fmt.Errorf("partition gate %s/%s: partitioned shuffle %d vs baseline %d (>%.0f%% worse; baseline commit %s)",
				r.Query, r.Engine, r.PartShuffleBytes, b.PartShuffleBytes, tolerance*100, baseline.Commit)
		}
	}
	return nil
}

// partitionEngines is the layout experiment's line-up: both engine families
// that can serve work map-side from the bucketed layout.
func partitionEngines(phiM int) []engine.QueryEngine {
	return []engine.QueryEngine{relmr.NewHive(), ntgamr.New(ntgamr.LazyAuto, phiM)}
}

// partitionRun is the experiment body behind PartitionFigure/PartitionResult:
// load once, build the bucketed layout once, then run every (query, engine)
// cell flat and partitioned on the same cluster and demand identical rows.
func partitionRun(opt Options, buckets int) (*Report, *PartitionDoc, error) {
	opt = opt.withDefaults()
	g, err := Dataset("bsbm", opt.Scale, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	qs, err := Series(partitionWorkload...)
	if err != nil {
		return nil, nil, err
	}
	doc := &PartitionDoc{Dataset: "bsbm", Scale: opt.Scale, Seed: opt.Seed, Buckets: buckets}

	t := &stats.Table{
		Title:  fmt.Sprintf("Partitioned layout — %d hash-of-subject buckets, flat vs bucketed on one cluster", buckets),
		Header: []string{"query", "engine", "layout", "cycles", "map-only", "shuffle", "HDFS reads", "time", "rows"},
	}
	savings := &stats.Table{
		Title:  "Shuffle-byte savings from the bucketed layout",
		Header: []string{"query", "engine", "flat shuffle", "partitioned shuffle", "savings"},
	}

	phiM := PhiMForScale(opt.Scale)
	const input = "data/triples"
	for _, cq := range qs {
		mr := ClusterSpec{}.newCluster(GraphBytes(g))
		if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
			return nil, nil, fmt.Errorf("bench: loading input for %s: %w", cq.ID, err)
		}
		part, err := plan.BuildPartitionLayout(mr, input, "part/T", buckets, g.Version())
		if err != nil {
			return nil, nil, fmt.Errorf("bench: building layout for %s: %w", cq.ID, err)
		}
		q, err := compileCatalogQuery(g, cq)
		if err != nil {
			return nil, nil, err
		}
		for _, eng := range partitionEngines(phiM) {
			flat, err := engine.Run(eng, mr, q, plan.Source{Base: input})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s flat on %s: %w", eng.Name(), cq.ID, err)
			}
			bucketed, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s partitioned on %s: %w", eng.Name(), cq.ID, err)
			}
			if rowsHash(flat.Rows) != rowsHash(bucketed.Rows) || len(flat.Rows) != len(bucketed.Rows) {
				return nil, nil, fmt.Errorf("bench: %s on %s: partitioned rows diverge from flat (%d vs %d rows)",
					eng.Name(), cq.ID, len(bucketed.Rows), len(flat.Rows))
			}
			mapOnly := 0
			for _, jm := range bucketed.Workflow.Jobs {
				if jm.MapOnly {
					mapOnly++
				}
			}
			row := PartitionRow{
				Query: cq.ID, Engine: eng.Name(),
				FlatCycles:       flat.Workflow.Cycles,
				FlatShuffleBytes: flat.Workflow.TotalMapOutputBytes(),
				PartCycles:       bucketed.Workflow.Cycles,
				PartShuffleBytes: bucketed.Workflow.TotalMapOutputBytes(),
				MapOnlyJobs:      mapOnly,
				Rows:             int64(len(bucketed.Rows)),
			}
			doc.Rows = append(doc.Rows, row)
			t.AddRow(cq.ID, eng.Name(), "flat", row.FlatCycles, 0,
				stats.FormatBytes(row.FlatShuffleBytes), stats.FormatBytes(flat.Workflow.TotalMapInputBytes()),
				ms(flat.Workflow.Duration), row.Rows)
			t.AddRow(cq.ID, eng.Name(), "partitioned", row.PartCycles, row.MapOnlyJobs,
				stats.FormatBytes(row.PartShuffleBytes), stats.FormatBytes(bucketed.Workflow.TotalMapInputBytes()),
				ms(bucketed.Workflow.Duration), row.Rows)
			savings.AddRow(cq.ID, eng.Name(),
				stats.FormatBytes(row.FlatShuffleBytes), stats.FormatBytes(row.PartShuffleBytes),
				fmt.Sprintf("%.0f%%", 100*stats.Gain(float64(row.FlatShuffleBytes), float64(row.PartShuffleBytes))))
		}
	}

	rep := &Report{ID: "partition",
		Title:  "Hash-of-subject bucketed layout: shuffle elimination on repeat-joined queries",
		Tables: []*stats.Table{t, savings},
		Notes: []string{
			"expected shape: NTGA-Lazy's O-S chains drop to zero shuffle bytes (fully map-side); Hive eliminates the star-join cycles' shuffle but still shuffles the tuple joins",
			"rows are asserted identical between the flat and partitioned runs of every cell",
		},
	}
	return rep, doc, nil
}

// compileCatalogQuery parses and compiles one catalog query against the
// graph's dictionary.
func compileCatalogQuery(g *rdf.Graph, cq CatalogQuery) (*query.Query, error) {
	pq, err := sparql.Parse(cq.Src)
	if err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", cq.ID, err)
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		return nil, fmt.Errorf("bench: compiling %s: %w", cq.ID, err)
	}
	return q, nil
}

// PartitionResult runs the layout experiment and returns both the rendered
// report and the persistable document (ntga-bench -partition-out).
func PartitionResult(opt Options) (*Report, *PartitionDoc, error) {
	return partitionRun(opt, 8)
}

// PartitionFigure is the figureRunners entry for -fig partition.
func PartitionFigure(opt Options) (*Report, error) {
	rep, _, err := PartitionResult(opt)
	return rep, err
}
