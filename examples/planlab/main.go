// Planlab: plan inspection across the engine families. For a selection of
// catalog queries it prints the star decomposition and the MapReduce plan
// every engine would run — the cycle counts and triple-relation scans
// behind the Figure 3 case study — without executing anything. It closes
// with one query planned by one engine over three plan.Sources (flat file,
// bucketed layout, layout beside an uncompacted delta chain): where the
// triple relation sits is plan input, and it alone decides which cycles
// shuffle.
//
// Run with:
//
//	go run ./examples/planlab
package main

import (
	"fmt"
	"log"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/relmr"
	"ntga/internal/stats"
)

func main() {
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	flat := plan.Source{Base: "T"}

	table := &stats.Table{
		Title:  "MR cycles / full scans per engine (plan-level, no execution)",
		Header: []string{"query", "Pig", "Hive", "Sel-SJ-first", "NTGA-Lazy"},
	}
	for _, id := range []string{"Q1a", "Q2a", "Q3a", "B0", "B1", "B3", "B5"} {
		cq, err := bench.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		q, err := query.Parse(cq.Src, g.Dict)
		if err != nil {
			log.Fatal(err)
		}
		row := []any{id}
		for _, e := range []engine.QueryEngine{
			relmr.NewPig(), relmr.NewHive(), relmr.NewSelSJFirst(), ntgamr.NewLazy(),
		} {
			row = append(row, planShape(e, q, flat))
		}
		table.AddRow(row...)
	}
	fmt.Println(table.Render())
	fmt.Println(`cells are "cycles/scans"; n/a = shape unsupported by that planner`)

	// Show one full logical plan with an unbound-property join.
	cq, _ := bench.Lookup("B1")
	q, err := query.Parse(cq.Src, g.Dict)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlogical plan for B1:\n%s", q.Explain())

	// The same query and engine over three sources.
	part, err := plan.NewPartitioning(plan.PartitionKeySubject, 8, "part/T", "")
	if err != nil {
		log.Fatal(err)
	}
	chain := []string{"T_delta/block-1", "T_delta/block-2"}
	for _, s := range []struct {
		name string
		src  plan.Source
	}{
		{"flat file", flat},
		{"hash-of-subject layout", plan.Source{Base: flat.Base, Part: part}},
		{"layout beside two uncompacted delta blocks", plan.Source{Base: flat.Base, Deltas: chain, Part: part}},
	} {
		var cl engine.Cleaner
		p, err := engine.Plan(ntgamr.NewLazy(), q, s.src, &cl, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nNTGA-Lazy plan for B1 over a %s:\n%s", s.name, p.Summary())
	}
}

func planShape(e engine.QueryEngine, q *query.Query, src plan.Source) string {
	var cl engine.Cleaner
	p, err := engine.Plan(e, q, src, &cl, nil)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d", p.Cycles(), p.ScanCount())
}
