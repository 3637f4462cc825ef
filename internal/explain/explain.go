// Package explain renders the planner's view of a query: for every engine,
// the physical plan it would run and the catalog-estimated cost (MR cycles,
// full scans of the triple relation, shuffle bytes). It needs only a
// statistics catalog and a compiled query — no dataset, no execution — so
// `ntga-run -explain -stats` can price plans from a persisted catalog alone.
package explain

import (
	"encoding/json"
	"fmt"
	"strings"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/relmr"
)

// Input is the DFS name plans are built against for inspection. Summary()
// renders it as "T" regardless, so the choice never shows.
const Input = "T"

// NodeCost mirrors plan.NodeCost for JSON output.
type NodeCost struct {
	Name            string `json:"name"`
	Kind            string `json:"kind"`
	EstShuffleBytes int64  `json:"est_shuffle_bytes"`
	EstOutRecords   int64  `json:"est_out_records"`
}

// EngineCost is one engine's plan and estimated cost for a query.
type EngineCost struct {
	Engine    string `json:"engine"`
	Supported bool   `json:"supported"`
	// Reason says why the engine cannot plan the query (Supported=false).
	Reason          string     `json:"reason,omitempty"`
	Cycles          int        `json:"cycles,omitempty"`
	Scans           int        `json:"scans,omitempty"`
	EstShuffleBytes int64      `json:"est_shuffle_bytes,omitempty"`
	Plan            string     `json:"plan,omitempty"`
	Nodes           []NodeCost `json:"nodes,omitempty"`
}

// Engines returns the default engine lineup, in the fixed order the
// goldens pin down.
func Engines() []engine.QueryEngine {
	return []engine.QueryEngine{
		relmr.NewPig(),
		relmr.NewHive(),
		relmr.NewSelSJFirst(),
		ntgamr.NewEager(),
		ntgamr.NewLazy(),
	}
}

// ForQuery plans the query over src on every engine and prices each plan
// against the catalog. Engines that cannot plan the shape report
// Supported=false with the planner's reason. What src holds shows in the
// plan text: engines that understand a layout plan their map-only variants
// (map-only/part/part-miss attributes), a delta chain adds the DeltaUnion
// node, and the rest plan exactly as they would over the flat base.
func ForQuery(cat *plan.Catalog, q *query.Query, src plan.Source, engines []engine.QueryEngine) []EngineCost {
	out := make([]EngineCost, 0, len(engines))
	for _, e := range engines {
		var cl engine.Cleaner
		ec := EngineCost{Engine: e.Name()}
		p, err := engine.Plan(e, q, src, &cl)
		if err != nil {
			ec.Reason = err.Error()
			out = append(out, ec)
			continue
		}
		ec.Supported = true
		cost, nodes := plan.Estimate(cat, q, p)
		ec.Cycles = cost.Cycles
		ec.Scans = cost.Scans
		ec.EstShuffleBytes = cost.ShuffleBytes
		ec.Plan = p.Summary()
		for _, n := range nodes {
			ec.Nodes = append(ec.Nodes, NodeCost{
				Name: n.Name, Kind: n.Kind.String(),
				EstShuffleBytes: n.EstShuffleBytes, EstOutRecords: n.EstOutRecords,
			})
		}
		out = append(out, ec)
	}
	return out
}

// Render produces the text form: an estimated-cost table over all engines,
// then each supported engine's plan. The output is deterministic — it is
// what the EXPLAIN goldens record.
func Render(costs []EngineCost) string {
	var sb strings.Builder
	sb.WriteString("== estimated cost ==\n")
	fmt.Fprintf(&sb, "%-14s %-7s %-6s %s\n", "engine", "cycles", "scans", "shuffle(est)")
	for _, ec := range costs {
		if !ec.Supported {
			fmt.Fprintf(&sb, "%-14s (unsupported: %s)\n", ec.Engine, ec.Reason)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %-7d %-6d %d\n", ec.Engine, ec.Cycles, ec.Scans, ec.EstShuffleBytes)
	}
	for _, ec := range costs {
		if !ec.Supported {
			continue
		}
		fmt.Fprintf(&sb, "\n== %s plan ==\n%s", ec.Engine, ec.Plan)
	}
	return sb.String()
}

// RenderJSON produces the machine-readable form (-json).
func RenderJSON(costs []EngineCost) (string, error) {
	b, err := json.MarshalIndent(costs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// RunCost is EngineCost plus the measured values from actually executing
// the plan — the EXPLAIN ANALYZE view. Estimated fields come from the
// catalog; Act* fields from the run's workflow metrics.
type RunCost struct {
	EngineCost
	Ran             bool   `json:"ran"`
	RunErr          string `json:"run_err,omitempty"`
	ActCycles       int    `json:"act_cycles,omitempty"`
	ActScans        int    `json:"act_scans,omitempty"`
	ActShuffleBytes int64  `json:"act_shuffle_bytes,omitempty"`
	Rows            int64  `json:"rows,omitempty"`
}

// Analyze executes the query with every supported engine on a fresh
// in-memory cluster and pairs each estimate with the measured cycle count,
// triple-relation scans, and shuffle volume. With buckets > 0 each cluster
// additionally gets the hash-of-subject bucketed layout built, the estimates
// come from plans over that layout, and execution takes the engine's
// map-only path where it applies.
func Analyze(cat *plan.Catalog, g *rdf.Graph, q *query.Query, buckets int, engines []engine.QueryEngine) ([]RunCost, error) {
	var estPart *plan.Partitioning
	if buckets > 0 {
		var err error
		estPart, err = plan.NewPartitioning(plan.PartitionKeySubject, buckets, "part/T", g.Version())
		if err != nil {
			return nil, err
		}
	}
	costs := ForQuery(cat, q, plan.Source{Base: Input, Part: estPart}, engines)
	out := make([]RunCost, 0, len(costs))
	for i, ec := range costs {
		rc := RunCost{EngineCost: ec}
		if !ec.Supported {
			out = append(out, rc)
			continue
		}
		mr := mapreduce.NewEngine(
			hdfs.New(hdfs.Config{Nodes: 4, BlockSize: 1 << 16}),
			mapreduce.EngineConfig{SplitRecords: 4096, DefaultReducers: 4},
		)
		const input = "data/triples"
		if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
			return nil, err
		}
		var part *plan.Partitioning
		if buckets > 0 {
			var err error
			part, err = plan.BuildPartitionLayout(mr, input, "part/T", buckets, g.Version())
			if err != nil {
				return nil, err
			}
		}
		res, err := engine.Run(engines[i], mr, q, plan.Source{Base: input, Part: part})
		if err != nil {
			rc.RunErr = err.Error()
			out = append(out, rc)
			continue
		}
		rc.Ran = true
		rc.ActCycles = res.Workflow.Cycles
		rc.ActScans = res.Workflow.FullScans
		rc.ActShuffleBytes = res.Workflow.TotalMapOutputBytes()
		if res.IsCount {
			rc.Rows = res.Count
		} else {
			rc.Rows = int64(len(res.Rows))
		}
		out = append(out, rc)
	}
	return out, nil
}

// RenderAnalyze produces the estimated-vs-measured comparison table.
func RenderAnalyze(costs []RunCost) string {
	var sb strings.Builder
	sb.WriteString("== estimated vs actual ==\n")
	fmt.Fprintf(&sb, "%-14s %-12s %-10s %-22s %s\n",
		"engine", "cycles(e/a)", "scans(e/a)", "shuffle(est/actual)", "rows")
	for _, rc := range costs {
		if !rc.Supported {
			fmt.Fprintf(&sb, "%-14s (unsupported: %s)\n", rc.Engine, rc.Reason)
			continue
		}
		if !rc.Ran {
			fmt.Fprintf(&sb, "%-14s (failed: %s)\n", rc.Engine, rc.RunErr)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %-12s %-10s %-22s %d\n", rc.Engine,
			fmt.Sprintf("%d/%d", rc.Cycles, rc.ActCycles),
			fmt.Sprintf("%d/%d", rc.Scans, rc.ActScans),
			fmt.Sprintf("%d/%d", rc.EstShuffleBytes, rc.ActShuffleBytes),
			rc.Rows)
	}
	return sb.String()
}

// RenderAnalyzeJSON is the machine-readable form of RenderAnalyze.
func RenderAnalyzeJSON(costs []RunCost) (string, error) {
	b, err := json.MarshalIndent(costs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}
