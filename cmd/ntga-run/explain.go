package main

import (
	"fmt"
	"io"

	"ntga/internal/engines"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// explainQuery is the -explain mode: the query's logical structure, then
// each engine's physical plan and estimated cycles, scans of T and shuffle
// bytes, from the exact catalog of -data or a -stats file. With -analyze
// each engine also runs, and each estimate prints beside its measurement.
func explainQuery(w io.Writer, o *options) error {
	if o.data == "" && o.stats == "" {
		return fmt.Errorf("one of -data or -stats is required")
	}
	if o.analyze && o.data == "" {
		return fmt.Errorf("-analyze executes the query and therefore needs -data")
	}
	src, err := queryText(o)
	if err != nil {
		return err
	}

	// With -stats the query compiles against an empty dictionary, which
	// changes no estimate (the cost model reads the source AST), and a
	// layout has no dataset version to stamp (its identity sets the plan).
	var cat *plan.Catalog
	var g *rdf.Graph
	dict := rdf.NewDict()
	if o.data != "" {
		if g, err = readGraph(o.data); err != nil {
			return err
		}
		dict, cat = g.Dict, plan.FromGraph(g)
	} else if cat, err = plan.ReadFile(o.stats); err != nil {
		return err
	}
	q, err := query.Parse(src, dict)
	if err != nil {
		return err
	}

	// EXPLAIN prints every engine, so the only decision it takes from the
	// front door is the join order, at a local run's defaults.
	var reorder *plan.Reorder
	if o.optimize {
		var choice engines.Choice
		if choice, _, reorder, err = engines.Choose(cat, q, "ntga-lazy", 0, 8, true); err != nil {
			return err
		}
		if _, err := choice.Apply(q); err != nil {
			return err
		}
	}
	var part *plan.Partitioning
	if o.partBuckets > 0 {
		version := ""
		if g != nil {
			version = g.Version()
		}
		if part, err = plan.NewPartitioning(plan.PartitionKeySubject, o.partBuckets, "part/T", version); err != nil {
			return err
		}
	}

	emit := func(s string, err error) error {
		if err == nil {
			_, err = fmt.Fprint(w, s)
		}
		return err
	}
	if o.analyze {
		runs, err := explain.Analyze(cat, g, q, o.partBuckets, explain.Engines())
		switch {
		case err != nil:
			return err
		case o.jsonOut:
			return emit(explain.RenderAnalyzeJSON(runs))
		}
		return emit(explain.RenderAnalyze(runs), nil)
	}
	costs := explain.ForQuery(cat, q, plan.Source{Base: explain.Input, Part: part}, explain.Engines())
	if o.jsonOut {
		return emit(explain.RenderJSON(costs))
	}

	fmt.Fprintln(w, "== logical plan ==")
	fmt.Fprint(w, q.Explain())
	if o.data != "" && q.Empty() {
		fmt.Fprintln(w, "(provably empty against this dataset)")
	}
	if reorder != nil && reorder.Changed {
		fmt.Fprintf(w, "join order optimized: %v (est shuffle %d, legacy %d)\n",
			reorder.Order, reorder.Est, reorder.LegacyEst)
	} else if reorder != nil {
		fmt.Fprintf(w, "join order kept: %v (est shuffle %d)\n", reorder.Order, reorder.Est)
	}
	fmt.Fprintln(w)
	return emit(explain.Render(costs), nil)
}
