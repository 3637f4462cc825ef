package ntgamr_test

import (
	"fmt"
	"slices"
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
)

// TestPlansWriteNoDeadFiles runs every NTGA engine's plan of every BSBM
// catalog query, flat and over an 8-bucket layout, with the final output
// written like any other: every non-empty file a job writes, but the final
// output, must be an input or a side input of a later job. A map-only join
// followed by another map-only join writes its lefts to the routed bucket
// files only; its main output, which no job reads, stays empty.
func TestPlansWriteNoDeadFiles(t *testing.T) {
	g, err := bench.Dataset("bsbm", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	const input = "data/triples"
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	part, err := plan.BuildPartitionLayout(mr, input, "part/T", 8, g.Version())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, src := range []plan.Source{{Base: input}, {Base: input, Part: part}} {
		for _, cq := range bench.Catalog() {
			if cq.Dataset != "bsbm" {
				continue
			}
			for _, strat := range []ntgamr.Strategy{ntgamr.Eager, ntgamr.LazyFull, ntgamr.LazyPartial, ntgamr.LazyAuto} {
				eng := ntgamr.New(strat, 0)
				label := fmt.Sprintf("%s on %s, layout %v", eng.Name(), cq.ID, src.Part != nil)
				q := enginetest.Compile(t, g, cq.Src)
				checked += deadWrites(t, mr, eng, q, src, label)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no intermediate file was checked")
	}
}

// deadWrites runs one plan and reports each dead file it wrote; it returns
// how many non-empty intermediate files it checked.
func deadWrites(t *testing.T, mr *mapreduce.Engine, eng *ntgamr.NTGA, q *query.Query, s plan.Source, label string) int {
	t.Helper()
	var cl engine.Cleaner
	defer cl.Clean(mr)
	p, err := engine.Plan(eng, q, s, &cl)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	stages, err := p.Lower()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := mr.RunWorkflowNamed(p.Engine, stages); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var jobs []*mapreduce.Job
	for _, st := range stages {
		jobs = append(jobs, st...)
	}
	checked := 0
	for i, job := range jobs {
		for _, out := range job.OutputBases() {
			size, err := mr.DFS().FileSize(out)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if out == p.Final || size == 0 {
				continue
			}
			checked++
			read := false
			for _, later := range jobs[i+1:] {
				read = read || slices.Contains(later.Inputs, out) || slices.Contains(later.TaskSideInputs, out)
			}
			if !read {
				t.Errorf("%s: job %s writes %s (%d bytes), which no later job reads", label, job.Name, out, size)
			}
		}
	}
	return checked
}
