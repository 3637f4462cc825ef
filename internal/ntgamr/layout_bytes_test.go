package ntgamr_test

import (
	"testing"

	"ntga/internal/bench"
	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

// TestLayoutGroupingWritesEachAnnTGOnce holds the grouping cycle over an
// 8-bucket layout to at most one copy of the grouping output, for every
// catalog query and both NTGA strategies. With a map-only join prefix it
// writes to the grouped bucket files the flat grouping output's AnnTGs of
// the map-only joins' right stars, to its main output those of the shuffled
// joins' right stars, and beside them only the routed lefts (the first
// join's left star reaches its join no other way): its written bytes are
// those three. Each star is the right star of at most one join, so no AnnTG
// is written to both. Without a prefix it writes the flat output itself. A
// plan whose shuffled join follows a map-only prefix (B7's) reads its right
// star from the main output and must still return the reference
// evaluator's rows.
func TestLayoutGroupingWritesEachAnnTGOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog sweep")
	}
	const buckets = 8
	graphs := map[string]*rdf.Graph{}
	for _, cq := range bench.Catalog() {
		t.Run(cq.ID, func(t *testing.T) {
			g, ok := graphs[cq.Dataset]
			if !ok {
				var err error
				if g, err = bench.Dataset(cq.Dataset, 1, 42); err != nil {
					t.Fatal(err)
				}
				graphs[cq.Dataset] = g
			}
			q := enginetest.Compile(t, g, cq.Src)
			for _, eng := range []*ntgamr.NTGA{ntgamr.NewEager(), ntgamr.NewLazy()} {
				mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
					mapreduce.EngineConfig{DefaultReducers: 4, SplitRecords: 1024})
				dfs := mr.DFS()
				const input = "data/triples"
				if err := engine.LoadGraph(dfs, input, g); err != nil {
					t.Fatal(err)
				}
				part, err := plan.BuildPartitionLayout(mr, input, "part/T", buckets, g.Version())
				if err != nil {
					t.Fatal(err)
				}
				// runGroup runs the plan's grouping cycle alone and returns its
				// job and metrics; the outputs stay until cl is cleaned.
				runGroup := func(src plan.Source, cl *engine.Cleaner) (*mapreduce.Job, mapreduce.JobMetrics) {
					p, err := engine.Plan(eng, q, src, cl)
					if err != nil {
						t.Fatal(err)
					}
					job := p.Stages[0][0].Job
					m, err := mr.Run(job)
					if err != nil {
						t.Fatalf("%s %s: %v", eng.Name(), job.Name, err)
					}
					return job, m
				}
				size := func(files ...string) int64 {
					var n int64
					for _, f := range files {
						s, err := dfs.FileSize(f)
						if err != nil {
							t.Fatal(err)
						}
						n += s
					}
					return n
				}
				prefix := ntgamr.MapOnlyPrefix(part, q.Joins)
				// mapOnly and shuffled mark the right stars of the map-only
				// and of the shuffled joins.
				mapOnly, shuffled := make([]bool, len(q.Stars)), make([]bool, len(q.Stars))
				for ji, j := range q.Joins {
					if mapOnly[j.Right.Star] || shuffled[j.Right.Star] {
						t.Fatalf("star %d is the right star of two joins", j.Right.Star)
					}
					if ji < prefix {
						mapOnly[j.Right.Star] = true
					} else {
						shuffled[j.Right.Star] = true
					}
				}
				// bytesOf sums the bytes of a grouping output's AnnTGs whose
				// star is marked.
				bytesOf := func(file string, marked []bool) int64 {
					recs, err := dfs.ReadAll(file)
					if err != nil {
						t.Fatal(err)
					}
					var s core.Scratch
					var n int64
					for _, rec := range recs {
						s.Reset()
						comps, err := s.DecodeJoined(rec)
						if err != nil {
							t.Fatal(err)
						}
						if marked[comps[0].EC] {
							n += int64(len(rec))
						}
					}
					return n
				}
				var flatCl, partCl engine.Cleaner
				flatJob, _ := runGroup(plan.Source{Base: input}, &flatCl)
				flat := size(flatJob.Output)
				job, m := runGroup(plan.Source{Base: input, Part: part}, &partCl)
				if prefix == 0 {
					if len(job.ExtraOutputs) != 0 || m.ReduceOutputBytes != flat || size(job.Output) != flat {
						t.Errorf("%s: grouping wrote %d bytes (%d extra outputs), want the flat output's %d",
							eng.Name(), m.ReduceOutputBytes, len(job.ExtraOutputs), flat)
					}
				} else {
					grp, routed := job.ExtraOutputs[:buckets], job.ExtraOutputs[buckets:]
					if len(routed) != buckets {
						t.Fatalf("%s: %d routed-left files, want %d", eng.Name(), len(routed), buckets)
					}
					grouped, main := bytesOf(flatJob.Output, mapOnly), bytesOf(flatJob.Output, shuffled)
					if got := size(grp...); got != grouped {
						t.Errorf("%s: grouped bucket files hold %d bytes, want the flat grouping output's %d of map-only right stars",
							eng.Name(), got, grouped)
					}
					if got := size(job.Output); got != main {
						t.Errorf("%s: main output holds %d bytes, want the flat grouping output's %d of shuffled right stars",
							eng.Name(), got, main)
					}
					if want := grouped + main + size(routed...); m.ReduceOutputBytes != want {
						t.Errorf("%s: grouping wrote %d bytes, want grouped %d + main %d + routed lefts %d",
							eng.Name(), m.ReduceOutputBytes, grouped, main, want-grouped-main)
					}
				}
				flatCl.Clean(mr)
				partCl.Clean(mr)
				if prefix == 0 || prefix == len(q.Joins) {
					continue
				}
				res, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
				if err != nil {
					t.Fatalf("%s: %v", eng.Name(), err)
				}
				if want := refengine.Evaluate(q, g); !query.RowsEqual(want, res.Rows) {
					t.Errorf("%s rows after a map-only prefix differ from reference:\n%s",
						eng.Name(), query.DiffRows(want, res.Rows, 6))
				}
			}
		})
	}
}
