package ntgamr

import (
	"fmt"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
)

// hdfsNew builds the default test DFS for fault-injection runs.
func hdfsNew() *hdfs.DFS {
	return hdfs.New(hdfs.Config{Nodes: 4, BlockSize: 1 << 16})
}

var testQueries = []struct {
	name string
	src  string
}{
	{"single bound star", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . }`},
	{"single star with unbound", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`},
	{"two stars OS join", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`},
	{"B1: join on unbound object", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`},
	{"B2: unbound with partially bound object", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t .
  FILTER(?x != ex:go1)
}`},
	{"B3: double unbound in one star", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x . ?g ?q ?y .
  ?x ex:type ?t .
  FILTER(?y != ex:go0)
}`},
	{"B4: non-joining unbound", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:xGO ?go . ?g ?p ?o .
  ?go ex:type ?t .
}`},
	{"OO join", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`},
	{"OO join on unbound objects both sides", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ?p ?x .
  ?b ex:synonym ?bs . ?b ?q ?x .
}`},
	{"constant subject", `
PREFIX ex: <http://ex/>
SELECT ?p ?o WHERE { ex:gene2 ?p ?o . }`},
	{"constant subject joined to star", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ex:gene2 ?p ?x .
  ?x ex:label ?xl . ?x ex:type ?t .
}`},
	{"contains filter", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ?p ?o . FILTER(CONTAINS(?o, "hexokinase")) }`},
	{"three star chain", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:xRef ?r . ?g ex:xGO ?go .
  ?go ex:type ?t .
  ?r ex:source ?src .
}`},
	{"three star chain via unbound", `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:namespace ?ns .
  ?g ex:xRef ?r .
  ?r ex:source ?src .
}`},
	{"empty result", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:label ?l . ?g ex:absentprop ?x . }`},
}

func allStrategies() []*NTGA {
	return []*NTGA{
		NewEager(),
		New(LazyFull, 0),
		New(LazyPartial, 8), // small φ_m to exercise bucket collisions
		NewLazy(),
	}
}

func TestNTGAMatchesReference(t *testing.T) {
	g := enginetest.BioGraph()
	for _, eng := range allStrategies() {
		for _, tc := range testQueries {
			t.Run(eng.Name()+"/"+tc.name, func(t *testing.T) {
				enginetest.RunAndCompare(t, eng, g, tc.src)
			})
		}
	}
}

func TestNTGAOnRandomGraphs(t *testing.T) {
	srcs := []string{
		`PREFIX ex: <http://ex/>
SELECT * WHERE { ?a ex:p0 ?x . ?a ?p ?y . ?x ex:p0 ?z . }`,
		`PREFIX ex: <http://ex/>
SELECT * WHERE { ?a ex:p1 ?v . ?a ?p ?x . ?x ?q ?w . ?x ex:p0 ?z . }`,
	}
	for seed := int64(0); seed < 4; seed++ {
		g := enginetest.RandomGraph(seed, 250, 15, 5, 25)
		for _, eng := range allStrategies() {
			for si, src := range srcs {
				t.Run(fmt.Sprintf("%s/seed%d/q%d", eng.Name(), seed, si), func(t *testing.T) {
					enginetest.RunAndCompare(t, eng, g, src)
				})
			}
		}
	}
}

func TestNTGAPhiMSweepAgreement(t *testing.T) {
	// The partial β-unnest must be correct for any partition range.
	g := enginetest.BioGraph()
	src := testQueries[3].src // B1: join on unbound object
	for _, m := range []int{1, 2, 16, 1024} {
		t.Run(fmt.Sprintf("phi%d", m), func(t *testing.T) {
			enginetest.RunAndCompare(t, New(LazyPartial, m), g, src)
		})
	}
}

func TestNTGAWorkflowShape(t *testing.T) {
	g := enginetest.BioGraph()
	twoStar := testQueries[2].src
	res := enginetest.RunAndCompare(t, NewLazy(), g, twoStar)
	// All star-joins in one grouping cycle + one join cycle = 2 (vs 3 for
	// Hive/Pig) — the headline of Figure 3.
	if res.Workflow.Cycles != 2 {
		t.Errorf("NTGA cycles = %d, want 2", res.Workflow.Cycles)
	}
	var cl engine.Cleaner
	p, err := engine.Plan(NewLazy(), enginetest.Compile(t, g, twoStar), plan.Source{Base: "in"}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	if scans := p.ScanCount(); scans != 1 {
		t.Errorf("NTGA full scans = %d, want 1", scans)
	}
}

func TestLazyBeatsEagerOnNonJoiningUnbound(t *testing.T) {
	// B4-style: the unbound pattern does not participate in the join, so
	// the lazy engine keeps it nested to the end; eager materializes every
	// combination. Output records and bytes must show it.
	g := enginetest.BioGraph()
	src := testQueries[6].src // B4
	eager := enginetest.RunAndCompare(t, NewEager(), g, src)
	lazy := enginetest.RunAndCompare(t, NewLazy(), g, src)
	if lazy.OutputRecords >= eager.OutputRecords {
		t.Errorf("lazy output records (%d) not below eager (%d)",
			lazy.OutputRecords, eager.OutputRecords)
	}
	if lazy.OutputBytes >= eager.OutputBytes {
		t.Errorf("lazy output bytes (%d) not below eager (%d)",
			lazy.OutputBytes, eager.OutputBytes)
	}
	if lazy.Workflow.TotalReduceOutputBytes() >= eager.Workflow.TotalReduceOutputBytes() {
		t.Errorf("lazy HDFS writes (%d) not below eager (%d)",
			lazy.Workflow.TotalReduceOutputBytes(), eager.Workflow.TotalReduceOutputBytes())
	}
}

func TestLazySingleStarKeepsOneTGPerSubject(t *testing.T) {
	// A1-style single unbound star: lazy emits exactly one AnnTG per
	// matching subject; eager emits one per unbound candidate.
	g := enginetest.BioGraph()
	src := testQueries[1].src
	eager := enginetest.RunAndCompare(t, NewEager(), g, src)
	lazy := enginetest.RunAndCompare(t, NewLazy(), g, src)
	if lazy.Counters[CounterAnnTGs] != lazy.OutputRecords {
		t.Errorf("lazy output records = %d, AnnTGs = %d — should be equal",
			lazy.OutputRecords, lazy.Counters[CounterAnnTGs])
	}
	if eager.Counters[CounterEagerUnnest] != eager.OutputRecords {
		t.Errorf("eager output records = %d, unnested = %d — should be equal",
			eager.OutputRecords, eager.Counters[CounterEagerUnnest])
	}
	if lazy.OutputRecords >= eager.OutputRecords {
		t.Errorf("lazy records (%d) not below eager (%d)", lazy.OutputRecords, eager.OutputRecords)
	}
}

func TestPartialUnnestReducesShuffleVolume(t *testing.T) {
	// B1 with an unbound-object join: the partial strategy must ship less
	// map output in the join cycle than the full unnest when bucket
	// collisions exist (φ_m small relative to candidate spread).
	g := enginetest.BioGraph()
	// Densify: many unbound candidates per subject sharing few buckets.
	for i := 0; i < 40; i++ {
		g.Add(enginetest.Ex("gene0"), enginetest.Ex(fmt.Sprintf("attr%d", i)),
			enginetest.Ex(fmt.Sprintf("go%d", i%5)))
	}
	g.Dedup()
	src := testQueries[3].src
	full := enginetest.RunAndCompare(t, New(LazyFull, 0), g, src)
	partial := enginetest.RunAndCompare(t, New(LazyPartial, 2), g, src)
	joinShuffle := func(r *engine.Result) int64 {
		return r.Workflow.Jobs[len(r.Workflow.Jobs)-1].MapOutputBytes
	}
	if joinShuffle(partial) >= joinShuffle(full) {
		t.Errorf("partial shuffle (%d) not below full (%d)",
			joinShuffle(partial), joinShuffle(full))
	}
	if partial.Counters[CounterPartialTGs] == 0 {
		t.Error("partial strategy produced no partial TGs")
	}
	if partial.Counters[CounterReduceUnnest] == 0 {
		t.Error("partial strategy did no reduce-side unnesting")
	}
}

func TestAutoPolicyPicksModes(t *testing.T) {
	g := enginetest.BioGraph()
	lazy := NewLazy()
	// Unbound-object join → bucketed.
	q := enginetest.Compile(t, g, testQueries[3].src)
	if got := lazy.joinModeFor(q, q.Joins[0]); got != bucketedMode {
		t.Errorf("unbound-object join mode = %v, want bucketed", got)
	}
	// Partially-bound object join → direct (full unnest suffices, §5).
	q = enginetest.Compile(t, g, testQueries[4].src)
	if got := lazy.joinModeFor(q, q.Joins[0]); got != directMode {
		t.Errorf("partially-bound join mode = %v, want direct", got)
	}
	// Bound-object join → direct regardless.
	q = enginetest.Compile(t, g, testQueries[2].src)
	if got := lazy.joinModeFor(q, q.Joins[0]); got != directMode {
		t.Errorf("bound join mode = %v, want direct", got)
	}
	// Eager engine never buckets.
	q = enginetest.Compile(t, g, testQueries[3].src)
	if got := NewEager().joinModeFor(q, q.Joins[0]); got != directMode {
		t.Errorf("eager join mode = %v, want direct", got)
	}
}

func TestNTGADiskFullFailure(t *testing.T) {
	// Same failure injection as the relational engines: eager unnesting on
	// a dense subject overflows a tiny cluster, lazy survives (the paper's
	// B3/B4 contrast).
	g := enginetest.BioGraph()
	for i := 0; i < 60; i++ {
		g.Add(enginetest.Ex("gene0"), enginetest.Ex(fmt.Sprintf("attr%d", i)),
			enginetest.Ex(fmt.Sprintf("val%d", i)))
	}
	g.Add(enginetest.Ex("val0"), enginetest.Ex("type"), enginetest.Ex("Thing"))
	src := `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ?p ?x . ?g ?q ?y .
  ?x ex:type ?t .
}`
	run := func(eng engine.QueryEngine) error {
		mr := enginetest.NewTinyMR(24*1024, 2)
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, src)
		_, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
		return err
	}
	if err := run(NewEager()); err == nil {
		t.Error("eager run on tiny cluster should fail with disk full")
	} else if !mapreduce.ErrIsDiskFull(err) {
		t.Errorf("eager err = %v, want disk-full", err)
	}
	if err := run(NewLazy()); err != nil {
		t.Errorf("lazy run should survive the tiny cluster, got %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	if Eager.String() != "Eager" || LazyAuto.String() != "LazyAuto" {
		t.Error("Strategy.String mismatch")
	}
	if New(LazyAuto, 0).Name() != "NTGA-Lazy" {
		t.Errorf("auto name = %q", New(LazyAuto, 0).Name())
	}
}

func TestCountAggregationAcrossEngines(t *testing.T) {
	// The future-work extension: COUNT(*) answered by every engine — the
	// NTGA engines from the implicit representation, the relational ones
	// by materializing. All must agree with the reference engine.
	g := enginetest.BioGraph()
	srcs := []string{
		`PREFIX ex: <http://ex/>
SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`,
		`PREFIX ex: <http://ex/>
SELECT (COUNT(*) AS ?n) WHERE {
  ?g ex:label ?gl . ?g ?p ?x .
  ?x ex:type ?t . ?x ex:label ?xl .
}`,
	}
	for _, src := range srcs {
		mr := enginetest.NewMR()
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, src)
		want := int64(len(refengine.Evaluate(q, g)))
		if want == 0 {
			t.Fatalf("count query %q is vacuous", src)
		}
		engines := []engine.QueryEngine{
			NewEager(), New(LazyFull, 0), New(LazyPartial, 4), NewLazy(),
			relmr.NewPig(), relmr.NewHive(),
		}
		for _, eng := range engines {
			res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			if !res.IsCount {
				t.Errorf("%s did not flag a count result", eng.Name())
			}
			if res.Count != want {
				t.Errorf("%s count = %d, want %d", eng.Name(), res.Count, want)
			}
			if res.Rows != nil {
				t.Errorf("%s materialized rows for a count query", eng.Name())
			}
		}
	}
}

func TestCountLazyAvoidsUnnest(t *testing.T) {
	// For a single-star count, lazy ships one nested AnnTG per subject and
	// never β-unnests; eager materializes every perfect TG just to count.
	g := enginetest.BioGraph()
	src := `PREFIX ex: <http://ex/>
SELECT (COUNT(*) AS ?n) WHERE { ?g ex:label ?l . ?g ex:xGO ?go . ?g ?p ?o . }`
	run := func(eng engine.QueryEngine) *engine.Result {
		mr := enginetest.NewMR()
		if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
			t.Fatal(err)
		}
		q := enginetest.Compile(t, g, src)
		res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy := run(NewLazy())
	eager := run(NewEager())
	if lazy.Count != eager.Count {
		t.Fatalf("counts differ: %d vs %d", lazy.Count, eager.Count)
	}
	// Both plans end in the count-fold cycle (whose output is one record),
	// so the materialization gap shows up as that cycle's map input: the
	// records the query plan proper produced.
	materialized := func(res *engine.Result) int64 {
		jobs := res.Workflow.Jobs
		if len(jobs) == 0 || jobs[len(jobs)-1].Job != "ntga-count" {
			t.Fatalf("%s plan did not end in the count-fold cycle: %+v", res.Engine, jobs)
		}
		return jobs[len(jobs)-1].MapInputRecords
	}
	if materialized(lazy) >= materialized(eager) {
		t.Errorf("lazy materialized records (%d) not below eager (%d)",
			materialized(lazy), materialized(eager))
	}
	if lazy.Counters[CounterEagerUnnest] != 0 {
		t.Errorf("lazy engine unnested %d TGs for a count query",
			lazy.Counters[CounterEagerUnnest])
	}
}

func TestStrategyAccessor(t *testing.T) {
	if NewEager().Strategy() != Eager || NewLazy().Strategy() != LazyAuto {
		t.Error("Strategy accessor mismatch")
	}
}

func TestNTGAResilientToTaskFailures(t *testing.T) {
	// The full NTGA workflow under injected task failures: with a retry
	// budget the run completes and the rows match a failure-free run.
	g := enginetest.BioGraph()
	src := testQueries[3].src // B1
	clean := enginetest.RunAndCompare(t, NewLazy(), g, src)

	faulty := mapreduce.NewEngine(
		hdfsNew(),
		mapreduce.EngineConfig{SplitRecords: 16, DefaultReducers: 4,
			TaskMaxAttempts: 8, Faults: &mapreduce.FaultPlan{Rate: 0.15, Seed: 3}},
	)
	if err := engine.LoadGraph(faulty.DFS(), "in", g); err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, src)
	res, err := engine.Run(NewLazy(), faulty, q, plan.Source{Base: "in"})
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	if int64(len(res.Rows)) != int64(len(clean.Rows)) {
		t.Errorf("rows under failures = %d, clean = %d", len(res.Rows), len(clean.Rows))
	}
	var retries int64
	for _, j := range res.Workflow.Jobs {
		retries += j.TaskRetries
	}
	if retries == 0 {
		t.Error("no task retries recorded at 15% failure rate")
	}
}
