package bench

import (
	"strings"
	"testing"

	"ntga/internal/codec"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/sparql"
)

func TestCatalogLookupAndSeries(t *testing.T) {
	if len(Catalog()) < 20 {
		t.Errorf("catalog has %d queries, expected the full Q/B/A/C series", len(Catalog()))
	}
	q, err := Lookup("B1")
	if err != nil || q.ID != "B1" {
		t.Errorf("Lookup(B1) = %+v, %v", q, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) succeeded")
	}
	s, err := Series("A1", "A2")
	if err != nil || len(s) != 2 {
		t.Errorf("Series = %v, %v", s, err)
	}
	if _, err := Series("A1", "nope"); err == nil {
		t.Error("Series with unknown id succeeded")
	}
}

func TestDatasets(t *testing.T) {
	for _, name := range []string{"bsbm", "lifesci", "infobox"} {
		g, err := Dataset(name, 1, 1)
		if err != nil || g.Len() == 0 {
			t.Errorf("Dataset(%s) = len %d, %v", name, g.Len(), err)
		}
	}
	if _, err := Dataset("nope", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestCatalogAgainstReference is the harness-level ground-truth check:
// every catalog query, on its dataset, must give identical rows across all
// four engines AND match the in-memory reference engine.
func TestCatalogAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, cq := range Catalog() {
		cq := cq
		t.Run(cq.ID, func(t *testing.T) {
			g, err := Dataset(cq.Dataset, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			qr, err := RunQuery(ClusterSpec{}, g, cq, AllEnginesScaled(1))
			if err != nil {
				t.Fatalf("RunQuery: %v", err)
			}
			pq, err := sparql.Parse(cq.Src)
			if err != nil {
				t.Fatal(err)
			}
			q, err := query.Compile(pq, g.Dict)
			if err != nil {
				t.Fatal(err)
			}
			want := refengine.Evaluate(q, g)
			for _, r := range qr.Runs {
				if !r.OK {
					t.Errorf("%s failed: %s", r.Engine, r.Err)
					continue
				}
				if r.Rows != int64(len(want)) {
					t.Errorf("%s rows = %d, reference = %d", r.Engine, r.Rows, len(want))
				}
			}
			// The evaluation queries must not be vacuous (except deliberately
			// selective ones may still be small).
			if len(want) == 0 {
				t.Errorf("catalog query %s has no results on its dataset", cq.ID)
			}
		})
	}
}

func runFigure(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := RunFigure(id, Options{})
	if err != nil {
		t.Fatalf("RunFigure(%s): %v", id, err)
	}
	return rep
}

func requireRun(t *testing.T, rep *Report, queryID, engineName string) EngineRun {
	t.Helper()
	for _, qr := range rep.Queries {
		if qr.Query.ID != queryID {
			continue
		}
		if r, ok := qr.Run(engineName); ok {
			return r
		}
	}
	t.Fatalf("%s: no run for %s/%s", rep.ID, queryID, engineName)
	return EngineRun{}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig3")
	for _, qid := range []string{"Q1a", "Q1b", "Q2a", "Q2b", "Q3a", "Q3b"} {
		sj := requireRun(t, rep, qid, "SJ-per-cycle")
		ntga := requireRun(t, rep, qid, "NTGA-Lazy")
		if !sj.OK || !ntga.OK {
			t.Fatalf("%s: runs failed (%v, %v)", qid, sj.Err, ntga.Err)
		}
		if sj.Cycles != 3 {
			t.Errorf("%s SJ-per-cycle cycles = %d, want 3", qid, sj.Cycles)
		}
		if ntga.Cycles != 2 {
			t.Errorf("%s NTGA cycles = %d, want 2", qid, ntga.Cycles)
		}
		if ntga.ReadBytes >= sj.ReadBytes {
			t.Errorf("%s NTGA reads (%d) not below SJ-per-cycle (%d)", qid, ntga.ReadBytes, sj.ReadBytes)
		}
	}
	// O-S queries: Sel-SJ-first saves a cycle; O-O: it costs a full scan.
	for _, qid := range []string{"Q1a", "Q2a"} {
		sel := requireRun(t, rep, qid, "Sel-SJ-first")
		if sel.Cycles != 2 {
			t.Errorf("%s Sel-SJ-first cycles = %d, want 2", qid, sel.Cycles)
		}
	}
	for _, qid := range []string{"Q3a", "Q3b"} {
		sel := requireRun(t, rep, qid, "Sel-SJ-first")
		sj := requireRun(t, rep, qid, "SJ-per-cycle")
		if sel.Cycles != 3 {
			t.Errorf("%s Sel-SJ-first cycles = %d, want 3", qid, sel.Cycles)
		}
		if sel.ReadBytes <= sj.ReadBytes {
			t.Errorf("%s Sel-SJ-first reads (%d) should exceed SJ-per-cycle (%d): extra full scan",
				qid, sel.ReadBytes, sj.ReadBytes)
		}
	}
}

// TestFig9aFailurePattern asserts the paper's headline failure pattern
// (modulo the documented B0 divergence).
func TestFig9aFailurePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig9a")
	wantOK := map[string]map[string]bool{
		"B0": {"Pig": true, "Hive": true, "NTGA-Eager": true, "NTGA-Lazy": true},
		"B1": {"Pig": false, "Hive": false, "NTGA-Eager": true, "NTGA-Lazy": true},
		"B2": {"Pig": false, "Hive": false, "NTGA-Eager": true, "NTGA-Lazy": true},
		"B3": {"Pig": false, "Hive": false, "NTGA-Eager": false, "NTGA-Lazy": true},
		"B4": {"Pig": false, "Hive": false, "NTGA-Eager": false, "NTGA-Lazy": true},
	}
	for qid, engines := range wantOK {
		for eng, want := range engines {
			r := requireRun(t, rep, qid, eng)
			if r.OK != want {
				t.Errorf("fig9a %s/%s OK = %v, want %v (err: %s)", qid, eng, r.OK, want, r.Err)
			}
			if !r.OK && !strings.Contains(r.Err, "disk") {
				t.Errorf("fig9a %s/%s failed for a non-disk reason: %s", qid, eng, r.Err)
			}
		}
	}
}

func TestFig9bFailurePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig9b")
	for _, qid := range []string{"B0", "B1", "B2"} {
		for _, eng := range []string{"Pig", "Hive", "NTGA-Eager", "NTGA-Lazy"} {
			if r := requireRun(t, rep, qid, eng); !r.OK {
				t.Errorf("fig9b %s/%s failed: %s", qid, eng, r.Err)
			}
		}
	}
	for _, qid := range []string{"B3", "B4"} {
		for _, eng := range []string{"Pig", "Hive"} {
			if r := requireRun(t, rep, qid, eng); r.OK {
				t.Errorf("fig9b %s/%s should fail on disk space", qid, eng)
			}
		}
		for _, eng := range []string{"NTGA-Eager", "NTGA-Lazy"} {
			if r := requireRun(t, rep, qid, eng); !r.OK {
				t.Errorf("fig9b %s/%s failed: %s", qid, eng, r.Err)
			}
		}
		eager := requireRun(t, rep, qid, "NTGA-Eager")
		lazy := requireRun(t, rep, qid, "NTGA-Lazy")
		if lazy.WriteBytes >= eager.WriteBytes {
			t.Errorf("fig9b %s: lazy writes (%d) not below eager (%d)", qid, lazy.WriteBytes, eager.WriteBytes)
		}
	}
}

func TestFig9cPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig9c")
	for _, qid := range []string{"B1-3bnd", "B1-4bnd", "B1-5bnd", "B1-6bnd"} {
		for _, eng := range []string{"NTGA-Eager", "NTGA-Lazy"} {
			if r := requireRun(t, rep, qid, eng); !r.OK {
				t.Errorf("fig9c %s/%s failed: %s", qid, eng, r.Err)
			}
		}
	}
	if r := requireRun(t, rep, "B1-3bnd", "Pig"); !r.OK {
		t.Errorf("fig9c Pig should survive 3 bound properties: %s", r.Err)
	}
	for _, qid := range []string{"B1-4bnd", "B1-5bnd", "B1-6bnd"} {
		if r := requireRun(t, rep, qid, "Pig"); r.OK {
			t.Errorf("fig9c Pig should fail at %s (paper: fails beyond 3 bound)", qid)
		}
	}
}

func TestFig10LazySavings(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig10")
	var lazyWrites []int64
	for _, qid := range []string{"B1-3bnd", "B1-4bnd", "B1-5bnd", "B1-6bnd"} {
		hive := requireRun(t, rep, qid, "Hive")
		lazy := requireRun(t, rep, qid, "NTGA-Lazy")
		if !hive.OK || !lazy.OK {
			t.Fatalf("%s failed: %s / %s", qid, hive.Err, lazy.Err)
		}
		saving := 1 - float64(lazy.WriteBytes)/float64(hive.WriteBytes)
		if saving < 0.5 {
			t.Errorf("%s lazy write saving = %.0f%%, want > 50%% (paper: 80-86%%)", qid, saving*100)
		}
		lazyWrites = append(lazyWrites, lazy.WriteBytes)
	}
	// NTGA output stays nearly flat as arity grows (paper: "almost constant").
	growth := float64(lazyWrites[len(lazyWrites)-1]) / float64(lazyWrites[0])
	if growth > 1.5 {
		t.Errorf("lazy writes grew %.2fx from 3bnd to 6bnd, want < 1.5x", growth)
	}
}

func TestFig11PartialBeatsFullOnUnboundObject(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig11")
	full := requireRun(t, rep, "B1", "NTGA-LazyFull")
	part := requireRun(t, rep, "B1", "NTGA-LazyPartial")
	if !full.OK || !part.OK {
		t.Fatalf("fig11 runs failed: %s / %s", full.Err, part.Err)
	}
	lastShuffle := func(r EngineRun) int64 {
		return r.JobMetrics[len(r.JobMetrics)-1].MapOutputBytes
	}
	if lastShuffle(part) >= lastShuffle(full) {
		t.Errorf("partial join shuffle (%d) not below full (%d) on B1",
			lastShuffle(part), lastShuffle(full))
	}
}

func TestFig12Pattern(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig12")
	for _, qid := range []string{"B3", "B4", "B5", "B6"} {
		for _, eng := range []string{"Pig", "Hive"} {
			if r := requireRun(t, rep, qid, eng); r.OK {
				t.Errorf("fig12 %s/%s should fail (paper: Pig/Hive fail B3-B6)", qid, eng)
			}
		}
		if r := requireRun(t, rep, qid, "NTGA-Lazy"); !r.OK {
			t.Errorf("fig12 %s/NTGA-Lazy failed: %s", qid, r.Err)
		}
	}
	for _, qid := range []string{"B3", "B4"} {
		eager := requireRun(t, rep, qid, "NTGA-Eager")
		lazy := requireRun(t, rep, qid, "NTGA-Lazy")
		if !eager.OK {
			t.Errorf("fig12 %s/NTGA-Eager failed: %s", qid, eager.Err)
			continue
		}
		if lazy.WriteBytes >= eager.WriteBytes {
			t.Errorf("fig12 %s: lazy writes not below eager", qid)
		}
	}
}

func TestFig13OutputCardinalities(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig13")
	// The paper's A1 triad: relational tuples > eager TGs > lazy TGs.
	hive := requireRun(t, rep, "A1", "Hive")
	eager := requireRun(t, rep, "A1", "NTGA-Eager")
	lazy := requireRun(t, rep, "A1", "NTGA-Lazy")
	if !(lazy.OutputRecords < eager.OutputRecords && eager.OutputRecords < hive.OutputRecords) {
		t.Errorf("A1 cardinalities: hive=%d eager=%d lazy=%d, want strictly decreasing",
			hive.OutputRecords, eager.OutputRecords, lazy.OutputRecords)
	}
	// Every A-query must succeed everywhere and produce results.
	for _, qid := range []string{"A1", "A2", "A3", "A4", "A5", "A6"} {
		for _, eng := range []string{"Pig", "Hive", "NTGA-Eager", "NTGA-Lazy"} {
			r := requireRun(t, rep, qid, eng)
			if !r.OK {
				t.Errorf("fig13 %s/%s failed: %s", qid, eng, r.Err)
			}
			if r.OK && r.Rows == 0 {
				t.Errorf("fig13 %s/%s returned no rows", qid, eng)
			}
		}
	}
	// A4: NTGA writes a fraction of Hive's (paper: 1.8GB/0.6GB vs 152GB).
	h4 := requireRun(t, rep, "A4", "Hive")
	l4 := requireRun(t, rep, "A4", "NTGA-Lazy")
	if float64(l4.WriteBytes) > 0.5*float64(h4.WriteBytes) {
		t.Errorf("A4 lazy writes %d vs hive %d, want < 50%%", l4.WriteBytes, h4.WriteBytes)
	}
}

func TestFig14RedundancyFactors(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig14")
	// C4 (unbound in each star): highest redundancy; lazy writes far less.
	// rep.Queries holds small-scale then big-scale runs; check both C4s.
	n := 0
	for _, qr := range rep.Queries {
		if qr.Query.ID != "C4" {
			continue
		}
		n++
		hive, _ := qr.Run("Hive")
		lazy, _ := qr.Run("NTGA-Lazy")
		if !hive.OK || !lazy.OK {
			t.Fatalf("C4 failed: %s / %s", hive.Err, lazy.Err)
		}
		if float64(lazy.OutputBytes) > 0.35*float64(hive.OutputBytes) {
			t.Errorf("C4 lazy output %d vs hive %d: redundancy factor below paper's ~0.89 ballpark",
				lazy.OutputBytes, hive.OutputBytes)
		}
	}
	if n != 2 {
		t.Errorf("expected C4 at both scales, saw %d", n)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	for _, id := range []string{"abl-phim", "abl-mult", "abl-repl", "abl-select", "abl-agg", "abl-share", "abl-sort"} {
		rep := runFigure(t, id)
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no table rows", id)
		}
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("nope", Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
	if len(Figures()) < 10 {
		t.Errorf("Figures() = %v", Figures())
	}
}

func TestReportRender(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig10")
	out := rep.Render()
	for _, want := range []string{"fig10", "B1-3bnd", "NTGA-Lazy", "savings"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

// TestFig9aTextExactPaperPattern: under the text wire the relational
// engines fail all five queries — the paper's exact Figure 9(a).
func TestFig9aTextExactPaperPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	rep := runFigure(t, "fig9a-text")
	for _, qid := range []string{"B0", "B1", "B2", "B3", "B4"} {
		for _, eng := range []string{"Pig-text", "Hive-text"} {
			r := requireRun(t, rep, qid, eng)
			if r.OK {
				t.Errorf("fig9a-text %s/%s should fail on disk space", qid, eng)
			} else if !strings.Contains(r.Err, "disk") {
				t.Errorf("fig9a-text %s/%s failed for non-disk reason: %s", qid, eng, r.Err)
			}
		}
		if r := requireRun(t, rep, qid, "NTGA-Lazy"); !r.OK {
			t.Errorf("fig9a-text %s/NTGA-Lazy failed: %s", qid, r.Err)
		}
	}
	for _, qid := range []string{"B0", "B1", "B2"} {
		if r := requireRun(t, rep, qid, "NTGA-Eager"); !r.OK {
			t.Errorf("fig9a-text %s/NTGA-Eager failed: %s", qid, r.Err)
		}
	}
	for _, qid := range []string{"B3", "B4"} {
		if r := requireRun(t, rep, qid, "NTGA-Eager"); r.OK {
			t.Errorf("fig9a-text %s/NTGA-Eager should fail", qid)
		}
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range []string{"pig", "hive", "sj-per-cycle", "sel-sj-first",
		"ntga-eager", "ntga-lazy", "ntga-lazy-full", "ntga-lazy-partial"} {
		eng, err := EngineByName(name, 0)
		if err != nil || eng == nil {
			t.Errorf("EngineByName(%q) = %v, %v", name, eng, err)
		}
	}
	if _, err := EngineByName("nope", 0); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestPhiMForScale(t *testing.T) {
	if PhiMForScale(0) != 16 || PhiMForScale(1) != 16 {
		t.Errorf("small scale = %d/%d", PhiMForScale(0), PhiMForScale(1))
	}
	if PhiMForScale(1000) != 1024 {
		t.Errorf("large scale = %d, want clamp at 1024", PhiMForScale(1000))
	}
}

// TestGraphBytesMatchesEncoding pins GraphBytes to what it measures: the
// length of every triple's codec encoding, summed.
func TestGraphBytesMatchesEncoding(t *testing.T) {
	g := rdf.NewGraph()
	for _, tr := range []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 127, P: 128, O: 16383}, {S: 16384, P: 1 << 21, O: 1<<32 - 1}, {}} {
		g.AddID(tr)
	}
	var want int64
	for _, tr := range g.Triples {
		want += int64(len(codec.EncodeTriple(tr)))
	}
	if got := GraphBytes(g); got != want {
		t.Errorf("GraphBytes = %d, the encodings' length %d", got, want)
	}
}
