// Command ntga-explain compiles a query and prints its logical structure
// (star decomposition, unbound slots, join plan) plus the physical plan and
// catalog-estimated cost for each engine — the cycle counts, triple-relation
// scans, and shuffle-byte estimates that drive the paper's cost comparisons.
//
// Statistics come from either the dataset itself (-data, exact catalog) or a
// persisted statistics catalog (-stats, no graph load at all — the warehouse
// deployment mode where plans are priced against the catalog file produced
// by `ntga-run -stats-out`).
//
// With -analyze (needs -data) each supported engine also executes the query
// on an in-memory cluster and the output pairs every estimate with the
// measured cycles, scans, and shuffle bytes.
//
// Usage:
//
//	ntga-explain -data data.nt -e 'SELECT * WHERE { ?s ?p ?o . ?s <http://x/label> ?l . }'
//	ntga-explain -stats catalog.json -json -query q.rq
//	ntga-explain -data data.nt -analyze -query q.rq
package main

import (
	"flag"
	"fmt"
	"os"

	"ntga/internal/engines"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

func main() {
	var (
		dataFile  = flag.String("data", "", "N-Triples input file (builds an exact catalog)")
		statsFile = flag.String("stats", "", "statistics catalog file (plan without loading any data)")
		queryFile = flag.String("query", "", "SPARQL query file")
		inline    = flag.String("e", "", "inline SPARQL query text")
		jsonOut   = flag.Bool("json", false, "emit the plan and cost estimates as JSON")
		optimize  = flag.Bool("optimize", false, "reorder inter-star joins by estimated selectivity before planning")
		analyze   = flag.Bool("analyze", false, "also execute the query per engine and report estimated vs actual costs (needs -data)")
		partBkts  = flag.Int("partition-buckets", 0, "plan (and with -analyze, run) over a hash-of-subject layout with this many buckets (0 = flat)")
	)
	flag.Parse()

	if *dataFile == "" && *statsFile == "" {
		fatal(fmt.Errorf("one of -data or -stats is required"))
	}
	if *analyze && *dataFile == "" {
		fatal(fmt.Errorf("-analyze executes the query and therefore needs -data"))
	}
	src := *inline
	if src == "" {
		if *queryFile == "" {
			fatal(fmt.Errorf("one of -query or -e is required"))
		}
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	}

	// Resolve the catalog and the dictionary the query compiles against.
	// With -stats there is no dataset: the query compiles against an empty
	// dictionary (constants become unsatisfiable predicates, which changes
	// nothing about plan shape or estimates — the cost model reads the
	// source AST, not compiled IDs).
	var cat *plan.Catalog
	var g *rdf.Graph
	dict := rdf.NewDict()
	if *dataFile != "" {
		f, err := os.Open(*dataFile)
		if err != nil {
			fatal(err)
		}
		g, err = rdf.ReadNTriples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		dict = g.Dict
		cat = plan.FromGraph(g)
	} else {
		var err error
		cat, err = plan.ReadFile(*statsFile)
		if err != nil {
			fatal(err)
		}
	}

	q, err := query.Parse(src, dict)
	if err != nil {
		fatal(err)
	}

	// EXPLAIN prints every engine, so the only decision it takes from the
	// front door is the join order; the engine and reducer count passed
	// are the defaults an ntga-run would use.
	var reorder *plan.Reorder
	if *optimize {
		var choice engines.Choice
		choice, _, reorder, err = engines.Choose(cat, q, "ntga-lazy", 0, 8, true)
		if err != nil {
			fatal(err)
		}
		if _, err := choice.Apply(q); err != nil {
			fatal(err)
		}
	}

	// The partitioned view: plans are priced as if the input were the
	// hash-of-subject bucketed layout. With -stats there is no dataset
	// version; the layout identity still determines the plan shape.
	var part *plan.Partitioning
	if *partBkts > 0 {
		version := ""
		if g != nil {
			version = g.Version()
		}
		part, err = plan.NewPartitioning(plan.PartitionKeySubject, *partBkts, "part/T", version)
		if err != nil {
			fatal(err)
		}
	}

	if *analyze {
		runs, err := explain.Analyze(cat, g, q, *partBkts, explain.Engines())
		if err != nil {
			fatal(err)
		}
		var s string
		if *jsonOut {
			s, err = explain.RenderAnalyzeJSON(runs)
		} else {
			s = explain.RenderAnalyze(runs)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}

	costs := explain.ForQuery(cat, q, plan.Source{Base: explain.Input, Part: part}, explain.Engines())
	if *jsonOut {
		s, err := explain.RenderJSON(costs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}

	fmt.Println("== logical plan ==")
	fmt.Print(q.Explain())
	if *dataFile != "" && q.Empty() {
		fmt.Println("(provably empty against this dataset)")
	}
	if reorder != nil {
		if reorder.Changed {
			fmt.Printf("join order optimized: %v (est shuffle %d, legacy %d)\n",
				reorder.Order, reorder.Est, reorder.LegacyEst)
		} else {
			fmt.Printf("join order kept: %v (est shuffle %d)\n", reorder.Order, reorder.Est)
		}
	}
	fmt.Println()
	fmt.Print(explain.Render(costs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ntga-explain:", err)
	os.Exit(1)
}
