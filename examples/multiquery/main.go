// Multiquery: scan sharing across a workload of exploration queries. A
// data analyst poking at an unfamiliar warehouse rarely asks one question;
// this example submits the whole A-series as one batch, sharing a single
// grouping cycle (and a single scan of the triple relation) across all six
// queries — and contrasts the batch's cost profile with running them one
// at a time.
//
// Run with:
//
//	go run ./examples/multiquery
package main

import (
	"fmt"
	"log"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/stats"
)

func main() {
	g, err := bench.Dataset("lifesci", 2, 11)
	if err != nil {
		log.Fatal(err)
	}
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 8}), mapreduce.EngineConfig{})
	const input = "warehouse/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		log.Fatal(err)
	}

	ids := []string{"A1", "A2", "A3", "A4", "A5", "A6"}
	var qs []*query.Query
	for _, id := range ids {
		cq, err := bench.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		q, err := query.Parse(cq.Src, g.Dict)
		if err != nil {
			log.Fatal(err)
		}
		qs = append(qs, q)
	}

	lazy := ntgamr.NewLazy()

	// One at a time.
	var sepCycles int
	var sepReads, sepShuffle int64
	for qi, q := range qs {
		res, err := engine.Run(lazy, mr, q, plan.Source{Base: input})
		if err != nil {
			log.Fatalf("%s: %v", ids[qi], err)
		}
		sepCycles += res.Workflow.Cycles
		sepReads += res.Workflow.TotalMapInputBytes()
		sepShuffle += res.Workflow.TotalMapOutputBytes()
	}

	// As one shared-scan batch.
	batch, err := lazy.RunBatch(mr, qs, input)
	if err != nil {
		log.Fatal(err)
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Six exploration queries over %d triples (NTGA-Lazy)", g.Len()),
		Header: []string{"mode", "MR cycles", "HDFS reads", "shuffle"},
	}
	t.AddRow("one at a time", sepCycles, stats.FormatBytes(sepReads), stats.FormatBytes(sepShuffle))
	t.AddRow("shared-scan batch", batch.Workflow.Cycles,
		stats.FormatBytes(batch.Workflow.TotalMapInputBytes()),
		stats.FormatBytes(batch.Workflow.TotalMapOutputBytes()))
	fmt.Println(t.Render())

	for qi, r := range batch.Results {
		fmt.Printf("%s: %d rows (%s nested output records)\n",
			ids[qi], len(r.Rows), stats.FormatCount(r.OutputRecords))
	}
}
