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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ntga/internal/engines"
	"ntga/internal/explain"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	dataFile, statsFile, queryFile, inline string
	jsonOut, optimize, analyze             bool
	partBkts                               int
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.dataFile, "data", "", "N-Triples input file (builds an exact catalog)")
	fs.StringVar(&o.statsFile, "stats", "", "statistics catalog file (plan without loading any data)")
	fs.StringVar(&o.queryFile, "query", "", "SPARQL query file")
	fs.StringVar(&o.inline, "e", "", "inline SPARQL query text")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the plan and cost estimates as JSON")
	fs.BoolVar(&o.optimize, "optimize", false, "reorder inter-star joins by estimated selectivity before planning")
	fs.BoolVar(&o.analyze, "analyze", false, "also execute the query per engine and report estimated vs actual costs (needs -data)")
	fs.IntVar(&o.partBkts, "partition-buckets", 0, "plan (and with -analyze, run) over a hash-of-subject layout with this many buckets (0 = flat)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := explainQuery(stdout, &o); err != nil {
		fmt.Fprintln(stderr, "ntga-explain:", err)
		return 1
	}
	return 0
}

// explainQuery prints what the options ask for: the plans and estimates, or
// with -analyze the estimates beside each engine's measured run.
func explainQuery(w io.Writer, o *options) error {
	if o.dataFile == "" && o.statsFile == "" {
		return fmt.Errorf("one of -data or -stats is required")
	}
	if o.analyze && o.dataFile == "" {
		return fmt.Errorf("-analyze executes the query and therefore needs -data")
	}
	src := o.inline
	if src == "" {
		if o.queryFile == "" {
			return fmt.Errorf("one of -query or -e is required")
		}
		b, err := os.ReadFile(o.queryFile)
		if err != nil {
			return err
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
	if o.dataFile != "" {
		f, err := os.Open(o.dataFile)
		if err != nil {
			return err
		}
		g, err = rdf.ReadNTriples(f)
		f.Close()
		if err != nil {
			return err
		}
		dict = g.Dict
		cat = plan.FromGraph(g)
	} else {
		var err error
		if cat, err = plan.ReadFile(o.statsFile); err != nil {
			return err
		}
	}

	q, err := query.Parse(src, dict)
	if err != nil {
		return err
	}

	// EXPLAIN prints every engine, so the only decision it takes from the
	// front door is the join order; the engine and reducer count passed
	// are the defaults an ntga-run would use.
	var reorder *plan.Reorder
	if o.optimize {
		var choice engines.Choice
		choice, _, reorder, err = engines.Choose(cat, q, "ntga-lazy", 0, 8, true)
		if err != nil {
			return err
		}
		if _, err := choice.Apply(q); err != nil {
			return err
		}
	}

	// The partitioned view: plans are priced as if the input were the
	// hash-of-subject bucketed layout. With -stats there is no dataset
	// version; the layout identity still determines the plan shape.
	var part *plan.Partitioning
	if o.partBkts > 0 {
		version := ""
		if g != nil {
			version = g.Version()
		}
		if part, err = plan.NewPartitioning(plan.PartitionKeySubject, o.partBkts, "part/T", version); err != nil {
			return err
		}
	}

	if o.analyze {
		runs, err := explain.Analyze(cat, g, q, o.partBkts, explain.Engines())
		if err != nil {
			return err
		}
		s := ""
		if o.jsonOut {
			if s, err = explain.RenderAnalyzeJSON(runs); err != nil {
				return err
			}
		} else {
			s = explain.RenderAnalyze(runs)
		}
		_, err = fmt.Fprint(w, s)
		return err
	}

	costs := explain.ForQuery(cat, q, plan.Source{Base: explain.Input, Part: part}, explain.Engines())
	if o.jsonOut {
		s, err := explain.RenderJSON(costs)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(w, s)
		return err
	}

	fmt.Fprintln(w, "== logical plan ==")
	fmt.Fprint(w, q.Explain())
	if o.dataFile != "" && q.Empty() {
		fmt.Fprintln(w, "(provably empty against this dataset)")
	}
	if reorder != nil {
		if reorder.Changed {
			fmt.Fprintf(w, "join order optimized: %v (est shuffle %d, legacy %d)\n",
				reorder.Order, reorder.Est, reorder.LegacyEst)
		} else {
			fmt.Fprintf(w, "join order kept: %v (est shuffle %d)\n", reorder.Order, reorder.Est)
		}
	}
	fmt.Fprintln(w)
	_, err = fmt.Fprint(w, explain.Render(costs))
	return err
}
