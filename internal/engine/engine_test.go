package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
	"ntga/internal/rdf"
)

func TestLoadGraphRoundtrip(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))
	g.Add(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("v"))
	dfs := hdfs.New(hdfs.Config{Nodes: 2})
	if err := LoadGraph(dfs, "t", g); err != nil {
		t.Fatal(err)
	}
	n, err := dfs.RecordCount("t")
	if err != nil || n != 2 {
		t.Errorf("RecordCount = %d, %v", n, err)
	}
}

func TestLoadGraphDiskFull(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 10000; i++ {
		g.Add(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral(strings.Repeat("x", i%50)))
	}
	dfs := hdfs.New(hdfs.Config{Nodes: 1, CapacityPerNode: 64, BlockSize: 32})
	err := LoadGraph(dfs, "t", g)
	if !errors.Is(err, hdfs.ErrDiskFull) {
		t.Fatalf("err = %v, want disk full", err)
	}
	if dfs.Exists("t") {
		t.Error("failed load left the file behind")
	}
}

func TestTempNameUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		n := TempName("e", "k")
		if seen[n] {
			t.Fatalf("duplicate temp name %q", n)
		}
		seen[n] = true
	}
}

func TestCleanerRemovesTracked(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1})
	mr := mapreduce.NewEngine(dfs, mapreduce.EngineConfig{})
	var cl Cleaner
	name := cl.Track("tmp/x")
	if err := dfs.WriteFile(name, nil); err != nil {
		t.Fatal(err)
	}
	cl.Track("tmp/never-created") // cleaning a missing file must not panic
	cl.Clean(mr)
	if dfs.Exists(name) {
		t.Error("Clean left tracked file")
	}
	cl.Clean(mr) // idempotent
}

func TestExecuteFailurePath(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1})
	mr := mapreduce.NewEngine(dfs, mapreduce.EngineConfig{})
	var cl Cleaner
	job := &mapreduce.Job{
		Name: "boom", Inputs: []string{"missing"}, Output: cl.Track("out"),
		MapOnly: mapreduce.MapOnlyFunc(func(_ string, r []byte, c mapreduce.Collector) error {
			return c.Collect(r)
		}),
	}
	res, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, nil, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return dst, 0, nil }))
	if err == nil {
		t.Fatal("Execute of failing workflow succeeded")
	}
	if !res.Workflow.Failed {
		t.Error("metrics not marked failed")
	}
	if res.Rows != nil {
		t.Error("failed run returned rows")
	}
}

func TestExecuteDecodeErrorPath(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1})
	mr := mapreduce.NewEngine(dfs, mapreduce.EngineConfig{})
	if err := dfs.WriteFile("in", [][]byte{[]byte("rec")}); err != nil {
		t.Fatal(err)
	}
	var cl Cleaner
	job := &mapreduce.Job{
		Name: "copy", Inputs: []string{"in"}, Output: cl.Track("out"),
		MapOnly: mapreduce.MapOnlyFunc(func(_ string, r []byte, c mapreduce.Collector) error {
			return c.Collect(r)
		}),
	}
	boom := errors.New("bad record")
	_, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, nil, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return dst, 0, boom }))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want decode error", err)
	}
	if dfs.Exists("out") {
		t.Error("Execute did not clean up after decode failure")
	}
}

func TestExecuteCollectsCounters(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{Nodes: 1})
	mr := mapreduce.NewEngine(dfs, mapreduce.EngineConfig{})
	if err := dfs.WriteFile("in", [][]byte{[]byte("rec")}); err != nil {
		t.Fatal(err)
	}
	counters := mapreduce.NewCounters()
	var cl Cleaner
	job := &mapreduce.Job{
		Name: "copy", Inputs: []string{"in"}, Output: cl.Track("out"),
		MapOnly: mapreduce.MapOnlyFunc(func(_ string, r []byte, c mapreduce.Collector) error {
			counters.Inc("records", 1)
			return c.Collect(r)
		}),
	}
	res, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, counters, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return append(dst, 1, 2), 1, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["records"] != 1 {
		t.Errorf("counters = %v", res.Counters)
	}
	if res.OutputRecords != 1 || res.OutputBytes == 0 {
		t.Errorf("output stats = %d records, %d bytes", res.OutputRecords, res.OutputBytes)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// decoderOf hands out the same stateless DecodeFunc for every range.
func decoderOf(f DecodeFunc) func() DecodeFunc { return func() DecodeFunc { return f } }

// decodeFixture writes a final file of n records, record i holding i as a
// uvarint, and returns a DFS holding it with the two-variable query and its
// COUNT(*) form.
func decodeFixture(t *testing.T, n int) (*hdfs.DFS, *query.Query, *query.Query) {
	t.Helper()
	dfs := hdfs.New(hdfs.Config{Nodes: 2})
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = binary.AppendUvarint(nil, uint64(i))
	}
	if err := dfs.WriteFile("final", recs); err != nil {
		t.Fatal(err)
	}
	return dfs, selectQuery(t), compileQuery(t, `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o . }`)
}

// selectQuery is a one-pattern query with two variables.
func selectQuery(t testing.TB) *query.Query {
	return compileQuery(t, `SELECT * WHERE { ?s <http://ex/p> ?o . }`)
}

func compileQuery(t testing.TB, src string) *query.Query {
	t.Helper()
	g := rdf.NewGraph()
	g.Add(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o"))
	q, err := query.Parse(src, g.Dict)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// fanOut is a decoder whose record i stands for i%3 rows (i, 0), (i, 1), …,
// so ranges produce uneven row counts, and some records none.
func fanOut(calls *atomic.Int64) func() DecodeFunc {
	return func() DecodeFunc {
		calls.Add(1)
		return func(dst []rdf.ID, rec []byte) ([]rdf.ID, int64, error) {
			i, _ := binary.Uvarint(rec)
			for j := uint64(0); j < i%3; j++ {
				dst = append(dst, rdf.ID(i), rdf.ID(j))
			}
			return dst, int64(i % 3), nil
		}
	}
}

// TestDecodeRangesKeepFileOrder: however many ranges decode the final file,
// the rows come out in file order, each clipped to its own width, every
// record is read once, and the DFS is charged exactly the file's bytes.
func TestDecodeRangesKeepFileOrder(t *testing.T) {
	const n = 5000 // ≈ 6,700 IDs: several slabs in one range
	var want []query.Row
	for i := 0; i < n; i++ {
		for j := 0; j < i%3; j++ {
			want = append(want, query.Row{rdf.ID(i), rdf.ID(j)})
		}
	}
	for _, k := range []int{1, 2, 4, 7, 64} {
		dfs, q, _ := decodeFixture(t, n)
		size, _ := dfs.FileSize("final")
		before := dfs.Metrics()
		var calls atomic.Int64
		res := &Result{}
		if err := decodeRanges(dfs, "final", n, k, q, fanOut(&calls), res); err != nil {
			t.Fatalf("%d ranges: %v", k, err)
		}
		if calls.Load() != int64(k) {
			t.Errorf("%d ranges: %d decoders, want one per range", k, calls.Load())
		}
		if !slices.EqualFunc(res.Rows, want, query.Row.Equal) {
			t.Errorf("%d ranges: %d rows out of file order (want %d)", k, len(res.Rows), len(want))
		}
		after := dfs.Metrics()
		if res.OutputRecords != n || res.OutputBytes != size || after.BytesRead-before.BytesRead != size {
			t.Errorf("%d ranges: %d records, %d bytes, %d read; want %d, %d, %d", k,
				res.OutputRecords, res.OutputBytes, after.BytesRead-before.BytesRead, n, size, size)
		}
		for i := range res.Rows[:len(res.Rows)-1] {
			next := res.Rows[i+1].Clone()
			_ = append(res.Rows[i], 99)
			if !res.Rows[i+1].Equal(next) {
				t.Fatalf("%d ranges: appending to row %d changed row %d", k, i, i+1)
			}
		}
	}
}

// TestDecodeRangeCount: Decode cuts a file into ranges of at least
// minDecodeRange records, at most one per CPU, and decodes a small file on
// the calling goroutine alone.
func TestDecodeRangeCount(t *testing.T) {
	for _, n := range []int{0, minDecodeRange, 2*minDecodeRange - 1, 2 * minDecodeRange, 64 * minDecodeRange} {
		dfs, q, _ := decodeFixture(t, n)
		var calls atomic.Int64
		if err := Decode(dfs, "final", q, fanOut(&calls), &Result{}); err != nil {
			t.Fatal(err)
		}
		if want := max(1, min(runtime.GOMAXPROCS(0), n/minDecodeRange)); calls.Load() != int64(want) {
			t.Errorf("%d records: %d ranges, want %d", n, calls.Load(), want)
		}
	}
}

// TestDecodeCountAndEmpty: a COUNT(*) query sums what the records stand for
// and builds no rows; an empty final file decodes to no rows.
func TestDecodeCountAndEmpty(t *testing.T) {
	dfs, _, count := decodeFixture(t, 500)
	var calls atomic.Int64
	res := &Result{}
	if err := decodeRanges(dfs, "final", 500, 4, count, fanOut(&calls), res); err != nil {
		t.Fatal(err)
	}
	if want := int64(499/3*3 + 1); res.Count != want || res.Rows != nil {
		t.Errorf("count = %d with %d rows, want %d and none", res.Count, len(res.Rows), want)
	}
	dfs, q, _ := decodeFixture(t, 0)
	res = &Result{}
	if err := Decode(dfs, "final", q, fanOut(&calls), res); err != nil || res.Rows != nil || res.OutputRecords != 0 {
		t.Errorf("empty file: %d rows, %d records, %v", len(res.Rows), res.OutputRecords, err)
	}
}

// TestDecodeReportsRangeError: a record one range cannot decode fails the
// whole decode, and no rows are returned.
func TestDecodeReportsRangeError(t *testing.T) {
	dfs, q, _ := decodeFixture(t, 1000)
	boom := errors.New("bad record")
	res := &Result{}
	err := decodeRanges(dfs, "final", 1000, 4, q, decoderOf(func(dst []rdf.ID, rec []byte) ([]rdf.ID, int64, error) {
		if i, _ := binary.Uvarint(rec); i == 700 {
			return dst, 0, boom
		}
		return append(dst, 1, 2), 1, nil
	}), res)
	if !errors.Is(err, boom) || res.Rows != nil {
		t.Errorf("err = %v with %d rows, want the decode error and none", err, len(res.Rows))
	}
}

// raceEnabled is set by race_test.go: allocation counts mean nothing under
// the race detector.
var raceEnabled bool

// TestDecodeAllocationCeiling: a decode allocates per range and per slab,
// not per record or row, so ten times the records costs a handful more
// allocations, not ten times as many.
func TestDecodeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := func(n int) float64 {
		dfs, q, _ := decodeFixture(t, n)
		var calls atomic.Int64
		return testing.AllocsPerRun(20, func() {
			if err := decodeRanges(dfs, "final", n, 2, q, fanOut(&calls), &Result{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("Decode in two ranges: %.0f allocations for 500 records, %.0f for 5,000", small, large)
	if large > 32 || large-small > 12 {
		t.Errorf("Decode: %.0f allocations for 500 records, %.0f for 5,000; ceiling 32, growth ≤ 12", small, large)
	}
}

// BenchmarkDecodeRanges times one range against two over final files whose
// records stand for 12 rows each; minDecodeRange comes from it:
//
//	go test -run '^$' -bench DecodeRanges -cpu 2 ./internal/engine
func BenchmarkDecodeRanges(b *testing.B) {
	q := selectQuery(b)
	decoder := decoderOf(func(dst []rdf.ID, rec []byte) ([]rdf.ID, int64, error) {
		var rows int64
		for ; len(rec) > 0; rows++ {
			s, k := binary.Uvarint(rec)
			o, k2 := binary.Uvarint(rec[k:])
			rec = rec[k+k2:]
			dst = append(dst, rdf.ID(s), rdf.ID(o))
		}
		return dst, rows, nil
	})
	for _, n := range []int{256, 1024, 8192} {
		dfs := hdfs.New(hdfs.Config{Nodes: 2})
		recs := make([][]byte, n)
		for i := range recs {
			for j := 0; j < 24; j++ {
				recs[i] = binary.AppendUvarint(recs[i], uint64(i*31+j*1000003))
			}
		}
		if err := dfs.WriteFile("final", recs); err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			b.Run(fmt.Sprintf("records=%d/ranges=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := decodeRanges(dfs, "final", n, k, q, decoder, &Result{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
