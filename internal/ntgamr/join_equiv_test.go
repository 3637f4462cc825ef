package ntgamr_test

import (
	"testing"

	"ntga/internal/bench"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// teeSweep runs a query under every lazy strategy with partial β-unnest and
// each φm, with every shuffled join's reduce groups fed to both the
// probe-then-pin reducer and the pin-everything oracle
// (ntgamr.TeeJoinReducers): the collected records must be byte-identical and
// in the same order, and the counters identical. It returns whether any plan
// had a bucketed join (TG_OptUnbJoin), and sums the tallies into sum.
func teeSweep(t *testing.T, mr *mapreduce.Engine, g *rdf.Graph, input, id, src string,
	sum *[2]int64, check func(*query.Query)) bool {
	t.Helper()
	bucketed := false
	for _, phiM := range []int{4, 32} {
		for _, strat := range []ntgamr.Strategy{ntgamr.LazyPartial, ntgamr.LazyAuto} {
			eng := ntgamr.New(strat, phiM)
			q, err := query.Parse(src, g.Dict)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if check != nil {
				check(q)
			}
			var cl engine.Cleaner
			p, err := engine.Plan(eng, q, plan.Source{Base: input}, &cl)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			partial := false
			for _, node := range p.Nodes() {
				partial = partial || (node.Kind == plan.KindTGJoin && node.Unnest == plan.UnnestPartial)
			}
			if !partial {
				cl.Clean(mr)
				continue
			}
			bucketed = true
			tally := ntgamr.TeeJoinReducers(p, func(format string, args ...any) {
				t.Errorf("%s %s φm=%d: "+format, append([]any{id, strat, phiM}, args...)...)
			})
			stages, err := p.Lower()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.Execute(mr, p.Engine, stages, p.Final, &cl, q,
				func() engine.DecodeFunc { return eng.Decoder(q) }, false); err != nil {
				t.Fatalf("%s %s φm=%d: %v", id, strat, phiM, err)
			}
			if tally.Bucketed.Load() == 0 || tally.Records.Load() == 0 {
				t.Errorf("%s %s φm=%d: %d bucketed groups and %d joined records compared",
					id, strat, phiM, tally.Bucketed.Load(), tally.Records.Load())
			}
			sum[0] += tally.Groups.Load()
			sum[1] += tally.LeftsOnly.Load()
		}
	}
	return bucketed
}

func loaded(t *testing.T, g *rdf.Graph, input string) *mapreduce.Engine {
	t.Helper()
	mr := enginetest.NewMR()
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestJoinReducerMatchesPinAllOracle sweeps every BSBM catalog query whose
// plan has a bucketed join over BSBM scale 2 — B1, B2, B3 and B5 among them
// — and some reduce groups hold lefts but no right.
func TestJoinReducerMatchesPinAllOracle(t *testing.T) {
	g, err := bench.Dataset("bsbm", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	const input = "data/triples"
	mr := loaded(t, g, input)
	bucketed := map[string]bool{}
	var sum [2]int64
	for _, cq := range bench.Catalog() {
		if cq.Dataset == "bsbm" && teeSweep(t, mr, g, input, cq.ID, cq.Src, &sum, nil) {
			bucketed[cq.ID] = true
		}
	}
	for _, id := range []string{"B1", "B2", "B3", "B5"} {
		if !bucketed[id] {
			t.Errorf("%s: no plan with a bucketed join", id)
		}
	}
	if sum[1] == 0 {
		t.Error("no reduce group without a right was compared")
	}
	t.Logf("%d queries, %d reduce groups compared, %d without a right", len(bucketed), sum[0], sum[1])
}

// TestJoinReducerMatchesPinAllOracleNestedRight is the same sweep over an
// O-O join through two unbound slots, so the right side reaches the reducer
// still nested too and probes before it pins; some of its candidates (the
// GO terms' types and namespaces) match no left.
func TestJoinReducerMatchesPinAllOracleNestedRight(t *testing.T) {
	g := enginetest.BioGraph()
	const input = "data/triples"
	mr := loaded(t, g, input)
	var sum [2]int64
	const src = `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:xRef ?r . ?a ?p ?x .
  ?b ex:label ?bl . ?b ?q ?x .
}`
	nestedRight := func(q *query.Query) {
		if j := q.Joins[0]; j.Left.Role != query.RoleSlotObj || j.Right.Role != query.RoleSlotObj {
			t.Fatalf("fixture: join %+v is not slot to slot", j)
		}
	}
	if !teeSweep(t, mr, g, input, "O-O", src, &sum, nestedRight) {
		t.Fatal("fixture: no plan with a bucketed join")
	}
}

func init() { ntgamr.LargeJoinGroup = b5JoinGroup }

// b5JoinGroup runs B5 (LazyAuto, TG_OptUnbJoin) over BSBM scale 2 with φm
// 32 and returns the largest reduce group of its second join, whose lefts
// are joined records still nested at the slot, ready to be reduced again.
func b5JoinGroup(tb testing.TB) *ntgamr.JoinGroup {
	tb.Helper()
	g, err := bench.Dataset("bsbm", 2, 42)
	if err != nil {
		tb.Fatal(err)
	}
	cq, err := bench.Lookup("B5")
	if err != nil {
		tb.Fatal(err)
	}
	mr := enginetest.NewMR()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		tb.Fatal(err)
	}
	eng := ntgamr.New(ntgamr.LazyAuto, bench.PhiMForScale(2))
	q, err := query.Parse(cq.Src, g.Dict)
	if err != nil {
		tb.Fatal(err)
	}
	var cl engine.Cleaner
	p, err := engine.Plan(eng, q, plan.Source{Base: input}, &cl)
	if err != nil {
		tb.Fatal(err)
	}
	group, err := ntgamr.RecordLargestJoinGroup(p, eng.Name()+"-join1")
	if err != nil {
		tb.Fatal(err)
	}
	stages, err := p.Lower()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := engine.Execute(mr, p.Engine, stages, p.Final, &cl, q,
		func() engine.DecodeFunc { return eng.Decoder(q) }, false); err != nil {
		tb.Fatal(err)
	}
	return group
}

// BenchmarkJoinReduce reduces B5's largest join1 group (b5JoinGroup) per op,
// through one task reducer as a reduce task attempt does: the join
// operator's own row, ns/op and allocs/op.
func BenchmarkJoinReduce(b *testing.B) {
	group := b5JoinGroup(b)
	records, err := group.ReduceAgain()
	if err != nil {
		b.Fatal(err)
	}
	if records == 0 {
		b.Fatal("fixture: the group joins nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := group.ReduceAgain(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(group.Values()), "values")
	b.ReportMetric(float64(records), "records")
}
