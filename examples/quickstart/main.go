// Quickstart: build a small RDF graph, ask an unbound-property question
// ("how is gene9 related to GO terms, via *any* property?"), and evaluate
// it with the NTGA lazy-unnest engine on the simulated MapReduce cluster.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

func main() {
	// 1. Build a graph. gene9 has two bound facts the query names
	//    explicitly (label, xGO) plus cross-references the query discovers
	//    through the unbound-property pattern.
	g := rdf.NewGraph()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	g.Add(ex("gene9"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	g.Add(ex("gene9"), ex("xGO"), ex("go1"))
	g.Add(ex("gene9"), ex("xGO"), ex("go9"))
	g.Add(ex("gene9"), ex("synonym"), rdf.NewLiteral("RCoR-1"))
	g.Add(ex("gene9"), ex("xRef"), ex("hs2131"))
	g.Add(ex("go1"), ex("label"), rdf.NewLiteral("transcription regulation"))
	g.Add(ex("go9"), ex("label"), rdf.NewLiteral("lipid metabolism"))
	g.Add(ex("hs2131"), ex("label"), rdf.NewLiteral("homo sapiens ref 2131"))

	// 2. An unbound-property query: ?p is a variable in the predicate
	//    position ("gene9 relates to ?x in some way; ?x has a label").
	compiled, err := query.Parse(`
PREFIX ex: <http://example.org/>
SELECT ?p ?x ?xl WHERE {
  ?g ex:label ?l .
  ?g ?p ?x .
  ?x ex:label ?xl .
}`, g.Dict)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(compiled.Explain())

	// 3. Run it on a simulated 4-node cluster with the paper's LazyUnnest
	//    strategy: one grouping cycle computes both stars, the join cycle
	//    β-unnests the unbound pattern as late as possible.
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), mapreduce.EngineConfig{})
	if err := engine.LoadGraph(mr.DFS(), "triples", g); err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(ntgamr.NewLazy(), mr, compiled, plan.Source{Base: "triples"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("?p\t?x\t?xl\n")
	for _, row := range compiled.ProjectAll(res.Rows) {
		fmt.Println(compiled.FormatRow(row))
	}
	fmt.Printf("\n%d rows in %d MR cycles; shuffle %dB, HDFS writes %dB\n",
		len(res.Rows), res.Workflow.Cycles,
		res.Workflow.TotalMapOutputBytes(), res.Workflow.TotalReduceOutputBytes())
}
