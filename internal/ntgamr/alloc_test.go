package ntgamr

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"ntga/internal/core"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

// pairSink is an Emitter/Collector that keeps copies of what it is given,
// and counts.
type pairSink struct {
	keys, vals [][]byte
	keep       bool
	counts     mapreduce.Counters
}

func (p *pairSink) Inc(name string, delta int64) { p.counts.Inc(name, delta) }

func (p *pairSink) Emit(k, v []byte) error {
	if p.keep {
		p.keys = append(p.keys, append([]byte(nil), k...))
		p.vals = append(p.vals, append([]byte(nil), v...))
	}
	return nil
}

func (p *pairSink) Collect(rec []byte) error { return p.Emit(nil, rec) }

type sliceValues struct {
	vals [][]byte
	i    int
}

func (s *sliceValues) Next() ([]byte, bool, error) {
	if s.i >= len(s.vals) {
		return nil, false, nil
	}
	s.i++
	return s.vals[s.i-1], true, nil
}

// joinAllocFixture builds the first join cycle of a B1-shaped query (join on
// an unbound slot's object, so LazyAuto keys it by φ_m bucket) over one gene
// with 15 pairs and its GO terms: the gene's grouping-output record, and the
// largest reduce group the map side produces from all records.
func joinAllocFixture(t *testing.T) (m *tgJoinMapper, r *tgJoinReducer, geneRec, key []byte, group [][]byte) {
	t.Helper()
	g := rdf.NewGraph()
	ex := enginetest.Ex
	g.Add(ex("gene"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	for i := 0; i < 12; i++ {
		g.Add(ex("gene"), ex(fmt.Sprintf("p%d", i%5)), ex(fmt.Sprintf("go%d", i)))
		g.Add(ex(fmt.Sprintf("go%d", i)), ex("label"), rdf.NewLiteral(fmt.Sprintf("go term %d", i)))
	}
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l . ?g ?p ?x .
  ?x ex:label ?xl .
}`)
	const phiM = 4
	j := q.Joins[0]
	if j.Left.Role != query.RoleSlotObj {
		t.Fatalf("fixture: join %+v does not bind through the slot", j)
	}
	m = &tgJoinMapper{q: q, join: j, mode: bucketedMode, phiM: phiM}
	r = &tgJoinReducer{q: q, join: j, mode: bucketedMode, phiM: phiM}
	sink := &pairSink{keep: true}
	for _, tg := range core.Group(g.Triples) {
		for _, a := range new(core.Scratch).UnbGrpFilter(tg, q.Stars) {
			rec := core.EncodeJoined([]core.AnnTG{a})
			if a.EC == j.Left.Star && len(a.Triples) == 13 {
				geneRec = rec
			}
			if err := m.Map("grouped", rec, sink); err != nil {
				t.Fatal(err)
			}
		}
	}
	if geneRec == nil {
		t.Fatal("fixture: no gene record")
	}
	byKey := map[string][][]byte{}
	for i, k := range sink.keys {
		byKey[string(k)] = append(byKey[string(k)], sink.vals[i])
	}
	for k, vals := range byKey {
		if len(vals) > len(group) || (len(vals) == len(group) && k < string(key)) {
			key, group = []byte(k), vals
		}
	}
	sort.Slice(group, func(a, b int) bool { return bytes.Compare(group[a], group[b]) < 0 })
	return m, r, geneRec, key, group
}

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool

// directSink is the collector of a task attempt whose main output goes to a
// result sink alone: it offers itself as that sink's attempt
// (mapreduce.DirectCollector) and expands each joined record it is handed
// into one slab, as the engine's result sink does. Encoded records are only
// counted.
type directSink struct {
	pairSink
	q                   *query.Query
	ids                 []rdf.ID
	rows                int64
	handed, handedBytes int
	collected           int
}

func (d *directSink) Direct() mapreduce.SinkAttempt { return d }
func (d *directSink) Handed(size int)               { d.handed++; d.handedBytes += size }
func (d *directSink) Collect([]byte) error          { d.collected++; return nil }
func (d *directSink) Commit(int)                    {}

func (d *directSink) CollectJoined(comps []core.AnnTG) (int, error) {
	ids, rows, err := core.AppendRows(d.ids, d.q, comps)
	d.ids, d.rows = ids, d.rows+rows
	return core.JoinedSize(comps), err
}

// LargeJoinGroup returns BenchmarkJoinReduce's group, B5's largest join1
// reduce group over BSBM scale 2 (320 values). The catalog and the data set
// live in internal/bench, which imports this package, so join_equiv_test.go
// sets it.
var LargeJoinGroup func(testing.TB) *JoinGroup

// TestJoinCycleAllocationCeilings gates the per-record cost of a join cycle:
// one map record (decode, partial β-unnest into 4 buckets, one emitted pair
// per bucket) and one reduce group (8 values, 5 joined records), each with
// the count at commit 39acfa2 (and, for the reduce, at 3f5422f) and now; the
// same group handed to a result sink; and a large group.
func TestJoinCycleAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, r, geneRec, key, group := joinAllocFixture(t)
	sink := &pairSink{}
	mapOne := func() {
		if err := m.Map("grouped", geneRec, sink); err != nil {
			t.Fatal(err)
		}
	}
	values := &sliceValues{vals: group}
	task := r.NewTaskReducer(0)
	reduceOne := func() {
		values.i = 0
		if err := task.Reduce(key, values, sink); err != nil {
			t.Fatal(err)
		}
	}
	mapOne()
	reduceOne()
	// 79 → 0: the record lives in a pooled Scratch, the pairs in its Buf.
	if got := testing.AllocsPerRun(100, mapOne); got > 0 {
		t.Errorf("tgJoinMapper.Map: %.0f allocations per record, ceiling 0", got)
	}
	// 132 → 6 → 0: the left index was a map and one slice per join value
	// (6); it is now the task reducer's joinIndex, reset per group, so a
	// group costs no heap allocation.
	if got := testing.AllocsPerRun(100, reduceOne); got > 0 {
		t.Errorf("tgJoinReducer.Reduce: %.0f allocations per group, ceiling 0", got)
	}

	// The hand-off: collected into a result sink's attempt, the group's
	// joined records cross as components — the same records, sizes and rows
	// as their encodings, none of them encoded — and once the sink's slab has
	// grown the group allocates nothing.
	encoded := &pairSink{keep: true}
	values.i = 0
	if err := task.Reduce(key, values, encoded); err != nil {
		t.Fatal(err)
	}
	want := &directSink{q: r.q}
	for _, rec := range encoded.vals {
		comps, err := new(core.Scratch).DecodeJoined(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.CollectJoined(comps); err != nil {
			t.Fatal(err)
		}
		want.handed++
		want.handedBytes += len(rec)
	}
	direct := &directSink{q: r.q}
	handOne := func() {
		values.i = 0
		direct.ids, direct.rows, direct.handed, direct.handedBytes = direct.ids[:0], 0, 0, 0
		if err := task.Reduce(key, values, direct); err != nil {
			t.Fatal(err)
		}
	}
	handOne()
	if direct.collected != 0 || direct.handed != want.handed || direct.handedBytes != want.handedBytes ||
		direct.rows != want.rows || !slices.Equal(direct.ids, want.ids) || want.rows == 0 {
		t.Fatalf("hand-off: %d encoded, %d handed (%d bytes, %d rows); the encodings: %d (%d bytes, %d rows)",
			direct.collected, direct.handed, direct.handedBytes, direct.rows, want.handed, want.handedBytes, want.rows)
	}
	if got := testing.AllocsPerRun(100, handOne); got > 0 {
		t.Errorf("tgJoinReducer.Reduce into a result sink: %.0f allocations per group, ceiling 0", got)
	}

	// 306 → 37 → 2: B5's largest join1 group re-grew both Scratches from
	// empty when they came from the pool (a Scratch past 64 KiB was dropped
	// on release, and the GC empties the pool); the task reducer keeps
	// them. The 2 left are the harness's value iterator and sink.
	large := LargeJoinGroup(t)
	reduceLarge := func() {
		if _, err := large.ReduceAgain(); err != nil {
			t.Fatal(err)
		}
	}
	reduceLarge()
	if got := testing.AllocsPerRun(20, reduceLarge); got > 5 {
		t.Errorf("tgJoinReducer.Reduce, %d-value group: %.0f allocations per group, ceiling 5", large.Values(), got)
	}
}

// TestSharedOperatorsAcrossGoroutines runs one mapper, one reducer and one
// map-only join factory instance from many goroutines at once, as concurrent
// tasks of a job do: every call must produce exactly what a lone call
// produces, counts included (and -race must stay quiet — scratch, join
// indexes and counters are per call or per task, never per operator).
func TestSharedOperatorsAcrossGoroutines(t *testing.T) {
	m, r, geneRec, key, group := joinAllocFixture(t)
	f, bucket, side, rights := mapOnlyAllocFixture(t)
	run := func() string {
		mapped, joined, mapOnly := &pairSink{keep: true}, &pairSink{keep: true}, &pairSink{keep: true}
		if err := m.Map("grouped", geneRec, mapped); err != nil {
			return err.Error()
		}
		if err := r.Reduce(key, &sliceValues{vals: group}, joined); err != nil {
			return err.Error()
		}
		task, err := f.NewTask(bucket, side)
		if err != nil {
			return err.Error()
		}
		defer task.(mapreduce.TaskMapper).Done() // its memory goes to the next call's task
		for _, rec := range rights {
			if err := task.MapRecord("grouped", rec, mapOnly); err != nil {
				return err.Error()
			}
		}
		return fmt.Sprintf("%x %x %x %x %v %v %v", mapped.keys, mapped.vals, joined.vals, mapOnly.vals,
			mapped.counts, joined.counts, mapOnly.counts)
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent call produced %s, a lone call %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// mapOnlyAllocFixture builds one map-only join task's inputs for a
// B1-shaped query over a 4-bucket layout: four genes, each with 12 slot
// candidates among 24 labelled objects, routed partially (μ^β_φm) to the
// buckets their candidates hash to. It returns the factory, the bucket
// holding the most routed lefts, those lefts (the task's side input) and the
// right star's records of that bucket.
func mapOnlyAllocFixture(t *testing.T) (f *joinTaskFactory, bucket int, side, rights [][]byte) {
	t.Helper()
	const n = 4
	g := rdf.NewGraph()
	objs, _ := slotPool(g, 24, n)
	ex := enginetest.Ex
	for i := 0; i < 4; i++ {
		gene := ex(fmt.Sprintf("gene%d", i))
		g.Add(gene, ex("kind"), ex("Gene"))
		for k := 0; k < 12; k++ {
			g.Add(gene, ex(fmt.Sprintf("p%d", k%3)), objs[(i*5+k)%len(objs)])
		}
	}
	g.Dedup()
	q := enginetest.Compile(t, g, `
PREFIX ex: <http://ex/>
SELECT * WHERE { ?g ex:kind ex:Gene . ?g ?p ?x . ?x ex:label ?xl . }`)
	j := q.Joins[0]
	if j.Left.Role != query.RoleSlotObj || j.Right.Role != query.RoleSubject {
		t.Fatalf("fixture: join %+v is not B1's", j)
	}
	files := make([]string, n)
	for b := range files {
		files[b] = fmt.Sprintf("jl/bucket-%05d", b)
	}
	rec := &routeRecorder{files: map[string][][]byte{}}
	route := &jlRoute{pos: j.Left, files: files}
	var s core.Scratch
	for _, comps := range firstLefts(q, g, j.Left.Star) {
		if err := route.emit(&s, q, comps, rec); err != nil {
			t.Fatal(err)
		}
	}
	for b, file := range files {
		if len(rec.files[file]) > len(side) {
			bucket, side = b, rec.files[file]
		}
	}
	for _, comps := range firstLefts(q, g, j.Right.Star) {
		if layoutBucket(comps[0].Subject, n) == bucket {
			rights = append(rights, core.EncodeJoined(comps))
		}
	}
	return &joinTaskFactory{q: q, join: j, buckets: n}, bucket, side, rights
}

// TestMapOnlyJoinAllocationCeiling gates one warm map-only join task
// attempt: NewTask filing the bucket's routed lefts, MapRecord over the
// bucket's right records, pinning each matched left, and Done, with the
// count at commit 3f5422f and now.
func TestMapOnlyJoinAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f, bucket, side, rights := mapOnlyAllocFixture(t)
	sink := &pairSink{}
	runTask := func() {
		task, err := f.NewTask(bucket, side)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rights {
			if err := task.MapRecord("grouped", r, sink); err != nil {
				t.Fatal(err)
			}
		}
		task.(mapreduce.TaskMapper).Done()
	}
	joined := &pairSink{}
	task, err := f.NewTask(bucket, side)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rights {
		if err := task.MapRecord("grouped", r, joined); err != nil {
			t.Fatal(err)
		}
	}
	if joined.counts[CounterMapUnnest] == 0 {
		t.Fatal("fixture: the task pinned no left")
	}
	// 43 → 35 → 34 → 0: the index was a map and one slice per join value;
	// it became one map and one slab of entries, and each joined record is
	// built in one reused buffer rather than a growing slab. The task, its
	// index and the slabs of its two Scratches now come from their pools and
	// go back when the attempt ends (Done), so a warm task allocates nothing,
	// however many lefts it files.
	if got := testing.AllocsPerRun(100, runTask); got > 0 {
		t.Errorf("map-only join task: %.0f allocations, ceiling 0", got)
	}
}
