package bench

import (
	"fmt"
	"time"

	"ntga/internal/datagen"
	"ntga/internal/engine"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/relmr"
	"ntga/internal/stats"
)

// AblationPhiM sweeps the partial β-unnest partition range φ_m on the
// unbound-object join query B1 (the paper fixes φ_m = 1K; this shows the
// trade-off it navigates: small m → fewer, bigger partial TGs but more
// reduce-side work per bucket; large m → degenerates to full unnest).
func AblationPhiM(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	var engines []engine.QueryEngine
	for _, m := range []int{1, 16, 256, 1024, 8192} {
		e := ntgamr.New(ntgamr.LazyPartial, m)
		engines = append(engines, named{QueryEngine: e, name: fmt.Sprintf("φ%d", m)})
	}
	engines = append(engines, named{QueryEngine: ntgamr.New(ntgamr.LazyFull, 0), name: "full-unnest"})
	reports, err := runSeries(ClusterSpec{}, "bsbm", opt, []string{"B1"}, engines)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: "Ablation — φ_m partition range on B1",
		Header: []string{"engine", "time", "join shuffle", "join time", "partial TGs"}}
	for _, qr := range reports {
		for _, r := range qr.Runs {
			last := lastJob(qr, r.Engine)
			t.AddRow(r.Engine, okOrX(r, ms(r.Duration)), stats.FormatBytes(last.shuffle),
				ms(last.dur), stats.FormatCount(r.Counters[ntgamr.CounterPartialTGs]))
		}
	}
	return &Report{ID: "abl-phim", Title: "Partial β-unnest partition-range sweep",
		Tables: []*stats.Table{t}, Queries: reports,
		Notes: []string{"expected shape: shuffle bytes grow with φ_m toward the full-unnest volume"}}, nil
}

// AblationMultiplicity varies the LifeSci high-multiplicity knob and
// contrasts eager vs lazy unnesting — redundancy (and the lazy advantage)
// should grow with multiplicity.
func AblationMultiplicity(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	cq, err := Lookup("A4")
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: "Ablation — property multiplicity (query A4)",
		Header: []string{"max mult", "engine", "time", "HDFS writes", "out recs"}}
	var all []QueryReport
	for _, mult := range []int{2, 8, 32} {
		g := datagen.LifeSci(datagen.LifeSciConfig{
			Genes: 120 * opt.Scale, MaxMultiplicity: mult, Seed: opt.Seed})
		qr, err := RunQuery(ClusterSpec{}, g, cq, NTGAEngines())
		if err != nil {
			return nil, err
		}
		all = append(all, qr)
		for _, r := range qr.Runs {
			t.AddRow(mult, r.Engine, okOrX(r, ms(r.Duration)),
				okOrX(r, stats.FormatBytes(r.WriteBytes)), okOrX(r, stats.FormatCount(r.OutputRecords)))
		}
	}
	return &Report{ID: "abl-mult", Title: "Eager vs lazy under growing property multiplicity",
		Tables: []*stats.Table{t}, Queries: all,
		Notes: []string{"expected shape: eager writes grow superlinearly with multiplicity; lazy stays near-flat"}}, nil
}

// AblationReplication varies dfs.replication and reports physical write
// amplification for one representative query per engine family.
func AblationReplication(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	cq, err := Lookup("B1")
	if err != nil {
		return nil, err
	}
	g, err := Dataset("bsbm", opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: "Ablation — replication factor (query B1)",
		Header: []string{"replication", "engine", "logical writes", "peak disk"}}
	var all []QueryReport
	for _, rep := range []int{1, 2, 3} {
		qr, err := RunQuery(ClusterSpec{Replication: rep}, g, cq, AllEngines())
		if err != nil {
			return nil, err
		}
		all = append(all, qr)
		for _, r := range qr.Runs {
			t.AddRow(rep, r.Engine, okOrX(r, stats.FormatBytes(r.WriteBytes)),
				okOrX(r, stats.FormatBytes(r.PeakDFS)))
		}
	}
	return &Report{ID: "abl-repl", Title: "Write amplification under replication",
		Tables: []*stats.Table{t}, Queries: all,
		Notes: []string{"expected shape: peak disk scales with replication; relational engines amplify the most bytes"}}, nil
}

// AblationSelectivity contrasts the selective and unselective variants of
// the case-study queries (Q*a vs Q*b) across the three groupings.
func AblationSelectivity(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	reports, err := runSeries(ClusterSpec{}, "bsbm", opt,
		[]string{"Q2a", "Q2b", "Q3a", "Q3b"}, Fig3Engines())
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: "Ablation — join selectivity (filtered vs unfiltered case-study queries)",
		Header: []string{"query", "engine", "time", "shuffle", "out recs"}}
	for _, qr := range reports {
		for _, r := range qr.Runs {
			t.AddRow(qr.Query.ID, r.Engine, okOrX(r, ms(r.Duration)),
				okOrX(r, stats.FormatBytes(r.ShuffleBytes)), okOrX(r, stats.FormatCount(r.OutputRecords)))
		}
	}
	return &Report{ID: "abl-select", Title: "Selectivity sensitivity of the three groupings",
		Tables: []*stats.Table{t}, Queries: reports,
		Notes: []string{"expected shape: selective filters shrink every engine's footprint; grouping advantages persist"}}, nil
}

// AblationAggregation implements the paper's stated future work —
// "unbound-property queries with aggregation constraints" — and measures
// its natural NTGA advantage: COUNT(*) over a lazily-nested result needs no
// β-unnest at all (the count is the product of candidate-set sizes), while
// the relational engines must materialize every expanded tuple just to
// count it.
func AblationAggregation(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	g, err := Dataset("bsbm", opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	countB4 := CatalogQuery{
		ID: "B4-count", Dataset: "bsbm",
		Description: "COUNT(*) over B4 (non-joining unbound pattern)",
		Src: bsbmPrefix + `SELECT (COUNT(*) AS ?n) WHERE {
  ?o bsbm:product ?prod . ?o bsbm:price ?price . ?o bsbm:vendor ?v .
  ?prod bsbm:label ?l . ?prod bsbm:productFeature ?f . ?prod ?p ?any .
}`,
	}
	countB1 := CatalogQuery{
		ID: "B1-count", Dataset: "bsbm",
		Description: "COUNT(*) over B1 (join on unbound object)",
		Src: bsbmPrefix + `SELECT (COUNT(*) AS ?n) WHERE {
  ?prod bsbm:label ?l . ?prod bsbm:productFeature ?f . ?prod ?p ?x .
  ?x bsbm:label ?xl . ?x rdf:type bsbm:FeatureType .
}`,
	}
	t := &stats.Table{Title: "Ablation — COUNT(*) aggregation over unbound-property queries",
		Header: []string{"query", "engine", "count", "time", "HDFS writes", "out recs"}}
	var all []QueryReport
	for _, cq := range []CatalogQuery{countB1, countB4} {
		qr, err := RunQuery(ClusterSpec{}, g, cq, AllEnginesScaled(opt.Scale))
		if err != nil {
			return nil, err
		}
		all = append(all, qr)
		for _, r := range qr.Runs {
			t.AddRow(cq.ID, r.Engine, okOrX(r, stats.FormatCount(r.Rows)), okOrX(r, ms(r.Duration)),
				okOrX(r, stats.FormatBytes(r.WriteBytes)), okOrX(r, stats.FormatCount(r.OutputRecords)))
		}
	}
	return &Report{ID: "abl-agg", Title: "Aggregation over the implicit representation (paper future work)",
		Tables: []*stats.Table{t}, Queries: all,
		Notes: []string{"expected shape: identical counts everywhere; NTGA-Lazy materializes orders of magnitude fewer records"}}, nil
}

// AblationSortBuffer sweeps the map-side sort-buffer budget on B1: an
// unbounded buffer never touches local disk, while shrinking budgets force
// sorted spill runs and external merge passes — trading task memory for
// local-disk I/O exactly as Hadoop's io.sort.mb does. Results must be
// identical at every budget; only the spill profile moves.
func AblationSortBuffer(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	cq, err := Lookup("B1")
	if err != nil {
		return nil, err
	}
	g, err := Dataset("bsbm", opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	engines := []engine.QueryEngine{
		relmr.NewHive(),
		ntgamr.New(ntgamr.LazyAuto, PhiMForScale(opt.Scale)),
	}
	t := &stats.Table{Title: "Ablation — map sort-buffer budget (query B1)",
		Header: []string{"sort buffer", "engine", "time", "spilled", "spilled recs", "merge passes", "peak buffer"}}
	var all []QueryReport
	baseline := make(map[string]uint64) // engine -> rows hash at unbounded budget
	for _, budget := range []int64{0, 256 << 10, 64 << 10, 16 << 10} {
		qr, err := RunQuery(ClusterSpec{SortBufferBytes: budget}, g, cq, engines)
		if err != nil {
			return nil, err
		}
		all = append(all, qr)
		label := "∞"
		if budget > 0 {
			label = stats.FormatBytes(budget)
		}
		for _, r := range qr.Runs {
			if !r.OK {
				return nil, fmt.Errorf("bench: abl-sort %s failed at budget %d: %s", r.Engine, budget, r.Err)
			}
			if budget == 0 {
				baseline[r.Engine] = r.RowsHash
				if r.SpilledBytes != 0 || r.MergePasses != 0 {
					return nil, fmt.Errorf("bench: abl-sort %s spilled %d bytes with an unbounded buffer",
						r.Engine, r.SpilledBytes)
				}
			} else if r.RowsHash != baseline[r.Engine] {
				return nil, fmt.Errorf("bench: abl-sort %s results changed under budget %d", r.Engine, budget)
			}
			t.AddRow(label, r.Engine, ms(r.Duration), stats.FormatBytes(r.SpilledBytes),
				stats.FormatCount(r.SpilledRecords), r.MergePasses, stats.FormatBytes(r.PeakSortBuffer))
		}
	}
	return &Report{ID: "abl-sort", Title: "Bounded-memory shuffle: sort-buffer sweep",
		Tables: []*stats.Table{t}, Queries: all,
		Notes: []string{"expected shape: identical results at every budget; spill bytes and merge passes grow as the buffer shrinks while peak task memory falls"}}, nil
}

// AblationScanSharing contrasts running the A-series exploration queries
// individually against a single shared-scan batch (ntgamr.RunBatch): the
// batch scans the triple relation once for all queries, extending the
// NTGA scan-sharing idea across queries.
func AblationScanSharing(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	g, err := Dataset("lifesci", opt.Scale, opt.Seed)
	if err != nil {
		return nil, err
	}
	ids := []string{"A1", "A2", "A3", "A4", "A5", "A6"}
	var qs []*query.Query
	for _, id := range ids {
		cq, err := Lookup(id)
		if err != nil {
			return nil, err
		}
		q, err := query.Parse(cq.Src, g.Dict)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	lazy := ntgamr.New(ntgamr.LazyAuto, PhiMForScale(opt.Scale))

	spec := ClusterSpec{}.withDefaults()
	mr := spec.newCluster(GraphBytes(g))
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		return nil, err
	}

	// Individual runs.
	var sepReads, sepShuffle, sepWrites int64
	var sepCycles int
	var sepDur time.Duration
	sepRows := make([]int64, len(qs))
	for qi, q := range qs {
		res, err := engine.Run(lazy, mr, q, plan.Source{Base: input})
		if err != nil {
			return nil, fmt.Errorf("bench: separate run %s: %w", ids[qi], err)
		}
		sepReads += res.Workflow.TotalMapInputBytes()
		sepShuffle += res.Workflow.TotalMapOutputBytes()
		sepWrites += res.Workflow.TotalReduceOutputBytes()
		sepCycles += res.Workflow.Cycles
		sepDur += res.Workflow.Duration
		sepRows[qi] = int64(len(res.Rows))
	}

	// Shared-scan batch.
	batch, err := lazy.RunBatch(mr, qs, input)
	if err != nil {
		return nil, fmt.Errorf("bench: batch run: %w", err)
	}
	for qi := range qs {
		got := int64(len(batch.Results[qi].Rows))
		if got != sepRows[qi] {
			return nil, fmt.Errorf("bench: batch %s returned %d rows, separate run %d",
				ids[qi], got, sepRows[qi])
		}
	}

	t := &stats.Table{Title: "Ablation — shared-scan batch vs individual runs (A1–A6, NTGA-Lazy)",
		Header: []string{"mode", "MR cycles", "HDFS reads", "shuffle", "HDFS writes", "time"}}
	t.AddRow("separate", sepCycles, stats.FormatBytes(sepReads), stats.FormatBytes(sepShuffle),
		stats.FormatBytes(sepWrites), ms(sepDur))
	t.AddRow("batch", batch.Workflow.Cycles, stats.FormatBytes(batch.Workflow.TotalMapInputBytes()),
		stats.FormatBytes(batch.Workflow.TotalMapOutputBytes()),
		stats.FormatBytes(batch.Workflow.TotalReduceOutputBytes()), ms(batch.Workflow.Duration))
	return &Report{ID: "abl-share", Title: "Multi-query scan sharing",
		Tables: []*stats.Table{t},
		Notes:  []string{"expected shape: the batch scans the triple relation once instead of six times and needs fewer total cycles"}}, nil
}

// named wraps an engine with a display name override (for sweeps where the
// same engine type appears with different parameters).
type named struct {
	engine.QueryEngine
	name string
}

// Name implements engine.QueryEngine.
func (n named) Name() string { return n.name }
