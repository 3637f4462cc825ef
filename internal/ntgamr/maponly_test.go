package ntgamr

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ntga/internal/core"
	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
)

func TestMapOnlyPrefix(t *testing.T) {
	part, _ := plan.NewPartitioning(plan.PartitionKeySubject, 4, "part/T", "v")
	subj := query.Join{Right: query.Pos{Star: 1, Role: query.RoleSubject}}
	obj := query.Join{Right: query.Pos{Star: 2, Role: query.RoleBoundObj}}
	if got := MapOnlyPrefix(part, []query.Join{subj, subj}); got != 2 {
		t.Errorf("all-subject chain prefix = %d, want 2", got)
	}
	if got := MapOnlyPrefix(part, []query.Join{subj, obj, subj}); got != 1 {
		t.Errorf("broken chain prefix = %d, want 1", got)
	}
	if got := MapOnlyPrefix(part, []query.Join{obj}); got != 0 {
		t.Errorf("object-first chain prefix = %d, want 0", got)
	}
	if got := MapOnlyPrefix(nil, []query.Join{subj}); got != 0 {
		t.Errorf("nil partitioning prefix = %d, want 0", got)
	}
}

// TestPartitionedParity runs every test query under every strategy on the
// flat and the partitioned path and requires identical row multisets and
// counts — plus zero shuffle on the map-only cycles.
func TestPartitionedParity(t *testing.T) {
	g := enginetest.BioGraph()
	const buckets = 4
	for _, strat := range []Strategy{Eager, LazyFull, LazyPartial, LazyAuto} {
		eng := New(strat, 8)
		for _, tq := range testQueries {
			t.Run(strat.String()+"/"+tq.name, func(t *testing.T) {
				mr := enginetest.NewMR()
				const input = "data/triples"
				if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
					t.Fatal(err)
				}
				part, err := plan.BuildPartitionLayout(mr, input, "part/T", buckets, g.Version())
				if err != nil {
					t.Fatal(err)
				}
				q := enginetest.Compile(t, g, tq.src)
				flat, err := engine.Run(eng, mr, q, plan.Source{Base: input})
				if err != nil {
					t.Fatalf("flat run: %v", err)
				}
				q2 := enginetest.Compile(t, g, tq.src)
				pr, err := engine.Run(eng, mr, q2, plan.Source{Base: input, Part: part})
				if err != nil {
					t.Fatalf("partitioned run: %v", err)
				}
				if flat.IsCount != pr.IsCount || flat.Count != pr.Count {
					t.Errorf("count mismatch: flat %d, partitioned %d", flat.Count, pr.Count)
				}
				if !query.RowsEqual(flat.Rows, pr.Rows) {
					t.Errorf("rows differ:\n%s", query.DiffRows(flat.Rows, pr.Rows, 5))
				}
				// The grouping cycle never shuffles on the partitioned path,
				// and neither does any map-only join.
				prefix := MapOnlyPrefix(part, q2.Joins)
				for i, jm := range pr.Workflow.Jobs {
					if i == 0 || (i >= 1 && i-1 < prefix) {
						if !jm.MapOnly {
							t.Errorf("job %d (%s) not map-only", i, jm.Job)
						}
						if jm.MapOutputBytes != 0 {
							t.Errorf("job %d (%s) shuffled %d bytes", i, jm.Job, jm.MapOutputBytes)
						}
					}
				}
			})
		}
	}
}

// TestPartitionedFullyMapOnlyShuffleZero pins the headline property: a
// repeat-joined subject-bound query over the partitioned layout moves zero
// bytes through the shuffle (SELECT — COUNT adds a fold cycle).
func TestPartitionedFullyMapOnlyShuffleZero(t *testing.T) {
	g := enginetest.BioGraph()
	mr := enginetest.NewMR()
	const input = "data/triples"
	if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
		t.Fatal(err)
	}
	part, err := plan.BuildPartitionLayout(mr, input, "part/T", 4, g.Version())
	if err != nil {
		t.Fatal(err)
	}
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`)
	eng := NewLazy()
	res, err := engine.Run(eng, mr, q, plan.Source{Base: input, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Workflow.TotalMapOutputBytes(); got != 0 {
		t.Errorf("TotalMapOutputBytes = %d, want 0", got)
	}
	if len(res.Rows) == 0 {
		t.Error("query returned no rows")
	}
}

// TestPlanPartitionedShape checks the rewritten plan: map-only markers, the
// partitioning attribute, and the part-miss reason when the rewrite stops.
func TestPlanPartitionedShape(t *testing.T) {
	g := enginetest.BioGraph()
	part, err := plan.NewPartitioning(plan.PartitionKeySubject, 4, "part/T", "v")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewLazy()

	// Fully served: OS-join query.
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?gl . ?g ex:xGO ?go .
  ?go ex:label ?gol . ?go ex:type ?t .
}`)
	var cl engine.Cleaner
	p, err := engine.Plan(eng, q, plan.Source{Base: "data/triples", Part: part}, &cl)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range p.Nodes() {
		if !node.MapSide {
			t.Errorf("node %s not map-side", node.Name)
		}
		if node.Part == nil {
			t.Errorf("node %s lacks partitioning attribute", node.Name)
		}
	}
	if p.PartInput != part.Dir {
		t.Errorf("PartInput = %q, want %q", p.PartInput, part.Dir)
	}

	// OO join: the join cannot be served; the node says why.
	q2 := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?a ex:label ?al . ?a ex:xGO ?x .
  ?b ex:synonym ?bs . ?b ex:xGO ?x .
}`)
	var cl2 engine.Cleaner
	p2, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples", Part: part}, &cl2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p2.Nodes()
	if !nodes[0].MapSide {
		t.Error("grouping node not map-side")
	}
	join := nodes[1]
	if join.MapSide {
		t.Error("unserved join marked map-side")
	}
	if join.PartReason == "" {
		t.Error("unserved join lacks a part-miss reason")
	}

	// Nil partitioning: identical to the flat plan.
	var cl3 engine.Cleaner
	p3, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples"}, &cl3)
	if err != nil {
		t.Fatal(err)
	}
	var cl4 engine.Cleaner
	p4, err := engine.Plan(eng, q2, plan.Source{Base: "data/triples"}, &cl4)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Summary() != p4.Summary() {
		t.Errorf("nil-partitioned plan differs from flat:\n%s\nvs\n%s", p3.Summary(), p4.Summary())
	}
}

// routeRecorder is the NamedCollector a jlRoute routes into: it keeps a copy
// of every record per file and fails on the main output.
type routeRecorder struct {
	files  map[string][][]byte
	counts mapreduce.Counters
}

func (r *routeRecorder) Inc(name string, delta int64) { r.counts.Inc(name, delta) }

func (r *routeRecorder) Collect([]byte) error {
	return fmt.Errorf("routing wrote to the main output")
}

func (r *routeRecorder) CollectTo(file string, rec []byte) error {
	r.files[file] = append(r.files[file], bytes.Clone(rec))
	return nil
}

// checkRouting routes each left of a map-only join whose left position is a
// still-nested slot through a jlRoute over n buckets, and checks the partial
// β-unnest's shape: one record per bucket the slot's candidates hash to —
// never more than min(candidates, n) — each in that bucket's file, comps left
// as they were, and the join tasks, indexing those files, holding every
// candidate exactly once, in its own bucket. It returns how many lefts were
// checked.
func checkRouting(t *testing.T, q *query.Query, j query.Join, n int, lefts [][]core.AnnTG) int {
	t.Helper()
	pos, st := j.Left, q.Stars[j.Left.Star]
	files := make([]string, n)
	for b := range files {
		files[b] = fmt.Sprintf("jl/bucket-%05d", b)
	}
	route := &jlRoute{pos: pos, files: files}
	checked := 0
	for _, comps := range lefts {
		ci, err := compOf(comps, pos.Star)
		if err != nil {
			t.Fatal(err)
		}
		left := comps[ci]
		if pos.Role != query.RoleSlotObj || left.SlotSel[pos.Idx] != core.Nested {
			continue
		}
		checked++
		cands := left.SlotCandidates(nil, st, pos.Idx)
		var wantVals []rdf.ID
		hit := map[int]bool{}
		for _, k := range cands {
			v := left.Triples[k].O
			wantVals = append(wantVals, v)
			hit[layoutBucket(v, n)] = true
		}
		before := core.EncodeJoined(comps)
		rec := &routeRecorder{files: map[string][][]byte{}}
		var s core.Scratch
		if err := route.emit(&s, q, comps, rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(core.EncodeJoined(comps), before) {
			t.Fatalf("emit left the routed record changed: %v", comps)
		}
		routed := 0
		for b, f := range files {
			if len(rec.files[f]) > 0 && !hit[b] {
				t.Errorf("left %v routed to bucket %d, which none of its candidates hash to", left, b)
			}
			routed += len(rec.files[f])
		}
		if routed != len(hit) || routed > min(len(cands), n) {
			t.Errorf("left with %d candidates over %d buckets yielded %d routed records, want %d (≤ %d)",
				len(cands), n, routed, len(hit), min(len(cands), n))
		}
		if got := rec.counts[CounterPartialTGs]; got != int64(routed) {
			t.Errorf("%s = %d, want %d", CounterPartialTGs, got, routed)
		}
		var gotVals []rdf.ID
		for b, f := range files {
			task, err := (&joinTaskFactory{q: q, join: j, buckets: n}).NewTask(b, rec.files[f])
			if err != nil {
				t.Fatal(err)
			}
			x := task.(*joinTask).lefts
			for v := range x.heads {
				if layoutBucket(v, n) != b {
					t.Errorf("task %d indexed join value %d of bucket %d", b, v, layoutBucket(v, n))
				}
				for i := x.first(v); i >= 0; i = x.entries[i].next {
					if l := x.entries[i]; l.pair < 0 || l.comps[l.ci].Triples[l.pair].O != v {
						t.Errorf("task %d indexed %+v under %d", b, l, v)
					}
					gotVals = append(gotVals, v)
				}
			}
		}
		slices.Sort(wantVals)
		slices.Sort(gotVals)
		if !slices.Equal(gotVals, wantVals) {
			t.Errorf("join tasks indexed candidates %v, want %v", gotVals, wantVals)
		}
	}
	return checked
}

// runOverLayout runs the query under every strategy over an n-bucket layout
// of g and requires the reference evaluator's rows, no shuffled byte, and
// nothing left behind on the DFS but the input and the layout.
func runOverLayout(t *testing.T, g *rdf.Graph, src string, n int) {
	t.Helper()
	for _, strat := range []Strategy{Eager, LazyFull, LazyPartial, LazyAuto} {
		mr := enginetest.NewMR()
		const input = "data/triples"
		if err := engine.LoadGraph(mr.DFS(), input, g); err != nil {
			t.Fatal(err)
		}
		part, err := plan.BuildPartitionLayout(mr, input, "part/T", n, g.Version())
		if err != nil {
			t.Fatal(err)
		}
		kept := len(mr.DFS().List())
		q := enginetest.Compile(t, g, src)
		want := refengine.Evaluate(q, g)
		if len(want) == 0 {
			t.Fatal("fixture: the reference evaluator returns no rows")
		}
		if MapOnlyPrefix(part, q.Joins) != len(q.Joins) {
			t.Fatalf("fixture: %d of %d joins map-only", MapOnlyPrefix(part, q.Joins), len(q.Joins))
		}
		res, err := engine.Run(New(strat, 0), mr, q, plan.Source{Base: input, Part: part})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !query.RowsEqual(want, res.Rows) {
			t.Errorf("%s rows differ from reference:\n%s", strat, query.DiffRows(want, res.Rows, 8))
		}
		if got := res.Workflow.TotalMapOutputBytes(); got != 0 {
			t.Errorf("%s shuffled %d bytes over the layout", strat, got)
		}
		if files := mr.DFS().List(); len(files) != kept {
			t.Errorf("%s left files behind: %v", strat, files)
		}
	}
}

// slotPool encodes ex:o0 … ex:o<size-1> in g's dictionary, each labelled so
// that a join through an unbound slot finds it, and returns them with their
// buckets among n.
func slotPool(g *rdf.Graph, size, n int) ([]rdf.Term, []int) {
	objs, bkts := make([]rdf.Term, size), make([]int, size)
	for i := range objs {
		// Consecutive IDs: the layout hash's low bits follow the ID's, so
		// interleaving the labels' IDs would leave buckets unhit.
		objs[i] = enginetest.Ex(fmt.Sprintf("o%d", i))
		bkts[i] = layoutBucket(g.Dict.Encode(objs[i]), n)
	}
	for i, o := range objs {
		g.Add(o, enginetest.Ex("label"), rdf.NewLiteral(fmt.Sprintf("object %d", i)))
	}
	return objs, bkts
}

// firstLefts returns every AnnTG of the join's left star in g, each as a
// one-component record — the first join's lefts as the grouping cycle
// routes them.
func firstLefts(q *query.Query, g *rdf.Graph, star int) [][]core.AnnTG {
	var out [][]core.AnnTG
	for _, tg := range core.Group(g.Triples) {
		for _, a := range new(core.Scratch).UnbGrpFilter(tg, q.Stars) {
			if a.EC == star {
				out = append(out, []core.AnnTG{a})
			}
		}
	}
	return out
}

// TestMapOnlyPartialRouting covers the layout's μ^β_φm routing of a nested
// joining slot, over slot shapes that stress the bucket grouping: candidates
// spread over every bucket and all in one, one object under two properties,
// a single candidate, and a one-bucket layout. Each case checks the routed
// records' shape and the rows end to end.
func TestMapOnlyPartialRouting(t *testing.T) {
	const b1 = `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:kind ex:Gene . ?g ?p ?x . ?x ex:label ?xl . }`
	gene, kind, geneType := enginetest.Ex("gene0"), enginetest.Ex("kind"), enginetest.Ex("Gene")
	prop := func(i int) rdf.Term { return enginetest.Ex(fmt.Sprintf("p%d", i%3)) }
	cases := []struct {
		name    string
		src     string
		buckets int
		// build adds the gene's triples from the labelled pool and returns
		// how many buckets its slot candidates must cover.
		build func(g *rdf.Graph, objs []rdf.Term, bkts []int) int
	}{
		{"candidates in every bucket", b1, 8, func(g *rdf.Graph, objs []rdf.Term, bkts []int) int {
			g.Add(gene, kind, geneType)
			per := make([]int, 8)
			for i, o := range objs {
				if per[bkts[i]] < 3 {
					per[bkts[i]]++
					g.Add(gene, prop(i), o)
				}
			}
			return 8
		}},
		{"candidates in one bucket", b1, 8, func(g *rdf.Graph, objs []rdf.Term, bkts []int) int {
			g.Add(gene, kind, geneType)
			home := layoutBucket(g.Dict.MustLookup(geneType), 8)
			added := 0
			for i, o := range objs {
				if bkts[i] == home && added < 6 {
					added++
					g.Add(gene, prop(i), o)
				}
			}
			return 1
		}},
		{"one object under two properties", b1, 8, func(g *rdf.Graph, objs []rdf.Term, bkts []int) int {
			g.Add(gene, kind, geneType)
			g.Add(gene, prop(0), objs[0])
			g.Add(gene, prop(1), objs[0])
			return -1
		}},
		{"single candidate", `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ?p ?x . ?x ex:label ?xl . }`, 8, func(g *rdf.Graph, objs []rdf.Term, bkts []int) int {
			g.Add(gene, prop(0), objs[0])
			return 1
		}},
		{"one bucket", b1, 1, func(g *rdf.Graph, objs []rdf.Term, bkts []int) int {
			g.Add(gene, kind, geneType)
			for i, o := range objs[:20] {
				g.Add(gene, prop(i), o)
			}
			return 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := rdf.NewGraph()
			g.Dict.Encode(geneType)
			objs, bkts := slotPool(g, 64, tc.buckets)
			cover := tc.build(g, objs, bkts)
			g.Dedup()
			q := enginetest.Compile(t, g, tc.src)
			j := q.Joins[0]
			lefts := firstLefts(q, g, j.Left.Star)
			if checkRouting(t, q, j, tc.buckets, lefts) == 0 {
				t.Fatal("fixture: no left with a nested joining slot")
			}
			if cover > 0 {
				for _, comps := range lefts {
					if comps[0].Subject != g.Dict.MustLookup(gene) {
						continue
					}
					hit := map[int]bool{}
					for _, k := range comps[0].SlotCandidates(nil, q.Stars[j.Left.Star], j.Left.Idx) {
						hit[layoutBucket(comps[0].Triples[k].O, tc.buckets)] = true
					}
					if len(hit) != cover {
						t.Fatalf("fixture: gene's candidates cover %d buckets, want %d", len(hit), cover)
					}
				}
			}
			runOverLayout(t, g, tc.src, tc.buckets)
		})
	}
}

// TestMapOnlyPartialRoutingSecondJoin is B5's shape: the second map-only
// join's left is a joined two-component record whose second component's
// slot is still nested, so the first join's task routes it partially and the
// second join's task pins it inside the record.
func TestMapOnlyPartialRoutingSecondJoin(t *testing.T) {
	const src = `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:kind ex:Gene . ?g ex:xGO ?go .
  ?go ex:kind ex:GO . ?go ?p ?x .
  ?x ex:label ?xl .
}`
	const n = 8
	g := rdf.NewGraph()
	objs, _ := slotPool(g, 40, n)
	ex := enginetest.Ex
	for i := 0; i < 4; i++ {
		gene := ex(fmt.Sprintf("gene%d", i))
		g.Add(gene, ex("kind"), ex("Gene"))
		for k := 0; k <= i%3; k++ {
			g.Add(gene, ex("xGO"), ex(fmt.Sprintf("go%d", (i+k)%3)))
		}
	}
	for i := 0; i < 3; i++ {
		goTerm := ex(fmt.Sprintf("go%d", i))
		g.Add(goTerm, ex("kind"), ex("GO"))
		for k := i; k < len(objs); k += 3 {
			g.Add(goTerm, ex(fmt.Sprintf("q%d", k%2)), objs[k])
		}
	}
	g.Dedup()
	q := enginetest.Compile(t, g, src)
	if len(q.Joins) != 2 || q.Joins[1].Left.Role != query.RoleSlotObj || q.Joins[1].Left.Star != q.Joins[0].Right.Star {
		t.Fatalf("fixture: joins %+v are not B5's chain", q.Joins)
	}
	// The second join's lefts: each star-0 AnnTG joined with each star-1 one.
	var lefts [][]core.AnnTG
	for _, l := range firstLefts(q, g, q.Joins[0].Left.Star) {
		for _, r := range firstLefts(q, g, q.Joins[0].Right.Star) {
			lefts = append(lefts, []core.AnnTG{l[0], r[0]})
		}
	}
	if checkRouting(t, q, q.Joins[1], n, lefts) == 0 {
		t.Fatal("fixture: no joined left with a nested joining slot")
	}
	runOverLayout(t, g, src, n)
}
