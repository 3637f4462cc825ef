package ntgamr

import (
	"bytes"
	"fmt"
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
	m = &tgJoinMapper{q: q, join: j, mode: bucketedMode, phiM: phiM, rightFile: "grouped"}
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

// TestJoinCycleAllocationCeilings gates the per-record cost of a join cycle:
// one map record (decode, partial β-unnest into 4 buckets, one emitted pair
// per bucket) and one reduce group (8 values, 5 joined records), each with
// the count at commit 39acfa2 and now.
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
	reduceOne := func() {
		values.i = 0
		if err := r.Reduce(key, values, sink); err != nil {
			t.Fatal(err)
		}
	}
	mapOne()
	reduceOne()
	// 79 → 0: the record lives in a pooled Scratch, the pairs in its Buf.
	if got := testing.AllocsPerRun(100, mapOne); got > 0 {
		t.Errorf("tgJoinMapper.Map: %.0f allocations per record, ceiling 0", got)
	}
	// 132 → 6: the left index (a map and one slice per join value) is all
	// that is left.
	if got := testing.AllocsPerRun(100, reduceOne); got > 8 {
		t.Errorf("tgJoinReducer.Reduce: %.0f allocations per group, ceiling 8", got)
	}
}

// TestSharedOperatorsAcrossGoroutines runs one mapper and one reducer
// instance from many goroutines at once, as concurrent tasks of a job do:
// every call must produce exactly what a lone call produces, counts included
// (and -race must stay quiet — scratch and counters are per call, never per
// operator).
func TestSharedOperatorsAcrossGoroutines(t *testing.T) {
	m, r, geneRec, key, group := joinAllocFixture(t)
	run := func() string {
		mapped, joined := &pairSink{keep: true}, &pairSink{keep: true}
		if err := m.Map("grouped", geneRec, mapped); err != nil {
			return err.Error()
		}
		if err := r.Reduce(key, &sliceValues{vals: group}, joined); err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%x %x %x %v %v", mapped.keys, mapped.vals, joined.vals, mapped.counts, joined.counts)
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
