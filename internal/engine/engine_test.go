package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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
	res, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return dst, 0, nil }), false)
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
	_, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return dst, 0, boom }), false)
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
	var cl Cleaner
	job := &mapreduce.Job{
		Name: "copy", Inputs: []string{"in"}, Output: cl.Track("out"),
		MapOnly: mapreduce.MapOnlyFunc(func(_ string, r []byte, c mapreduce.Collector) error {
			c.Inc("records", 1)
			return c.Collect(r)
		}),
	}
	res, err := Execute(mr, "test", []mapreduce.Stage{{job}}, "out", &cl, selectQuery(t),
		decoderOf(func(dst []rdf.ID, _ []byte) ([]rdf.ID, int64, error) { return append(dst, 1, 2), 1, nil }), false)
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

// decoderOf hands out the same stateless DecodeFunc to every attempt.
func decoderOf(f DecodeFunc) func() DecodeFunc { return func() DecodeFunc { return f } }

// decodeFixture writes a final file of n records, record i holding i as a
// uvarint, and returns a DFS holding it with the two-variable query and its
// COUNT(*) form.
func decodeFixture(t testing.TB, n int) (*hdfs.DFS, *query.Query, *query.Query) {
	t.Helper()
	dfs := hdfs.New(hdfs.Config{Nodes: 2})
	if err := dfs.WriteFile("final", fixtureRecords(n)); err != nil {
		t.Fatal(err)
	}
	return dfs, selectQuery(t), compileQuery(t, `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o . }`)
}

// fixtureRecords are n records, record i holding i as a uvarint.
func fixtureRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = binary.AppendUvarint(nil, uint64(i))
	}
	return recs
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
// so tasks produce uneven row counts, and some records none.
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

// fanOutRows are the rows fanOut decodes records lo..hi-1 to, in order.
func fanOutRows(lo, hi int) []query.Row {
	var rows []query.Row
	for i := lo; i < hi; i++ {
		for j := 0; j < i%3; j++ {
			rows = append(rows, query.Row{rdf.ID(i), rdf.ID(j)})
		}
	}
	return rows
}

// slotPool is a SlotPool of cap(p) slots shared by both kinds, for tests
// that fix how many tasks run at once.
type slotPool chan struct{}

// NSlots returns a pool of n slots (the external sink tests use it too).
func NSlots(n int) mapreduce.SlotPool { return make(slotPool, n) }

func (p slotPool) Acquire(ctx context.Context, _ string) (func(), error) {
	select {
	case p <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-p }) }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// copyFinal runs, through Execute, a map-only job that copies the fixture
// file "final" to "out" in tasks of split records, on par map slots. "out"
// is not tracked, so a persisted copy outlives the run.
func copyFinal(dfs *hdfs.DFS, split, par int, cfg mapreduce.EngineConfig, q *query.Query,
	decoder func() DecodeFunc, persist bool) (*Result, error) {
	cfg.SplitRecords, cfg.Slots = split, NSlots(par)
	job := &mapreduce.Job{
		Name: "copy", Inputs: []string{"final"}, Output: "out",
		MapOnly: mapreduce.MapOnlyFunc(func(_ string, r []byte, c mapreduce.Collector) error {
			return c.Collect(r)
		}),
	}
	return Execute(mapreduce.NewEngine(dfs, cfg), "test", []mapreduce.Stage{{job}}, "out",
		new(Cleaner), q, decoder, persist)
}

// TestSinkKeepsTaskOrder: however many tasks produce the final output and
// however many run at once, the rows come out in task order — the order of
// the file the persisted form writes — each clipped to its own width, with
// one decoder per task. The sunk run writes nothing to the DFS; the
// persisted run writes exactly the output, and decoding its file gives the
// sink's rows.
func TestSinkKeepsTaskOrder(t *testing.T) {
	const n = 5000 // ≈ 6,700 IDs: several slabs in one task
	want := fanOutRows(0, n)
	for _, split := range []int{n, 2500, 715, 64} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("split %d, %d slots", split, par)
			dfs, q, _ := decodeFixture(t, n)
			size, _ := dfs.FileSize("final")
			before := dfs.Metrics()
			var calls atomic.Int64
			res, err := copyFinal(dfs, split, par, mapreduce.EngineConfig{}, q, fanOut(&calls), false)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tasks := int64((n + split - 1) / split)
			if calls.Load() != tasks {
				t.Errorf("%s: %d decoders, want one per task (%d)", label, calls.Load(), tasks)
			}
			if !slices.EqualFunc(res.Rows, want, query.Row.Equal) {
				t.Errorf("%s: %d rows out of task order (want %d)", label, len(res.Rows), len(want))
			}
			jm := res.Workflow.Jobs[0]
			if res.OutputRecords != n || res.OutputBytes != size || !jm.Sunk ||
				jm.ReduceOutputRecords != 0 || jm.ReduceOutputBytes != 0 {
				t.Errorf("%s: output %d records, %d bytes, job sunk=%v wrote %d/%d; want %d, %d, sunk, 0/0",
					label, res.OutputRecords, res.OutputBytes, jm.Sunk, jm.ReduceOutputRecords, jm.ReduceOutputBytes, n, size)
			}
			if w := dfs.Metrics().BytesWritten - before.BytesWritten; w != 0 || dfs.Exists("out") {
				t.Errorf("%s: the sunk run wrote %d DFS bytes (out exists: %v)", label, w, dfs.Exists("out"))
			}
			for i := range res.Rows[:len(res.Rows)-1] {
				next := res.Rows[i+1].Clone()
				_ = append(res.Rows[i], 99)
				if !res.Rows[i+1].Equal(next) {
					t.Fatalf("%s: appending to row %d changed row %d", label, i, i+1)
				}
			}

			persisted, err := copyFinal(dfs, split, par, mapreduce.EngineConfig{}, q, fanOut(&calls), true)
			if err != nil {
				t.Fatalf("%s persisted: %v", label, err)
			}
			jm = persisted.Workflow.Jobs[0]
			if jm.Sunk || jm.ReduceOutputBytes != size || persisted.OutputBytes != size ||
				!slices.EqualFunc(persisted.Rows, want, query.Row.Equal) {
				t.Errorf("%s persisted: sunk=%v, wrote %d bytes, output %d bytes, %d rows; want %d bytes and the sink's rows",
					label, jm.Sunk, jm.ReduceOutputBytes, persisted.OutputBytes, len(persisted.Rows), size)
			}
			fromFile := &Result{}
			if err := Decode(dfs, "out", q, fanOut(&calls)(), fromFile); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(fromFile.Rows, want, query.Row.Equal) || fromFile.OutputBytes != size {
				t.Errorf("%s persisted: the file decodes to %d rows, %d bytes", label, len(fromFile.Rows), fromFile.OutputBytes)
			}
		}
	}
}

// TestSinkKeepsOnlyWinners: only committed attempts reach the result, in
// task order whatever order they commit in; a rival that collected the same
// task's records (or any others) and never commits leaves no row behind.
func TestSinkKeepsOnlyWinners(t *testing.T) {
	q := selectQuery(t)
	recs := fixtureRecords(300)
	var calls atomic.Int64
	s := &resultSink{decoder: fanOut(&calls)}
	collect := func(lo, hi int) mapreduce.SinkAttempt {
		a := s.Attempt()
		for _, rec := range recs[lo:hi] {
			if err := a.Collect(rec); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	collect(0, 100) // a failed or speculated rival of task 0
	third, first, second := collect(200, 300), collect(0, 100), collect(100, 200)
	collect(100, 150) // a rival of task 1 killed mid-way
	third.Commit(2)
	first.Commit(0)
	second.Commit(1)
	res := &Result{}
	res.fill(q, s.tasks)
	if want := fanOutRows(0, 300); !slices.EqualFunc(res.Rows, want, query.Row.Equal) || res.OutputRecords != 300 {
		t.Errorf("%d rows from %d records, want %d from 300 in task order", len(res.Rows), res.OutputRecords, len(want))
	}
}

// TestSinkConcurrentCommits: tasks commit into one sink at once, each beside
// a rival attempt that loses; the result is every task's rows once, in task
// order. Meant for -race.
func TestSinkConcurrentCommits(t *testing.T) {
	const tasks, per = 64, 40
	q := selectQuery(t)
	recs := fixtureRecords(tasks * per)
	var calls atomic.Int64
	s := &resultSink{decoder: fanOut(&calls)}
	var wg sync.WaitGroup
	for task := 0; task < tasks; task++ {
		for attempt := 0; attempt < 2; attempt++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := s.Attempt()
				for _, rec := range recs[task*per : (task+1)*per] {
					if err := a.Collect(rec); err != nil {
						t.Error(err)
						return
					}
				}
				if attempt == 0 {
					a.Commit(task)
				}
			}()
		}
	}
	wg.Wait()
	res := &Result{}
	res.fill(q, s.tasks)
	if want := fanOutRows(0, tasks*per); !slices.EqualFunc(res.Rows, want, query.Row.Equal) {
		t.Errorf("%d rows, want %d in task order", len(res.Rows), len(want))
	}
}

// TestDecodeCountAndEmpty: a COUNT(*) query sums what the records stand for
// and builds no rows, through the sink and through a file decode alike; an
// empty output decodes to no rows.
func TestDecodeCountAndEmpty(t *testing.T) {
	want := int64(499/3*3 + 1)
	dfs, _, count := decodeFixture(t, 500)
	var calls atomic.Int64
	res := &Result{}
	if err := Decode(dfs, "final", count, fanOut(&calls)(), res); err != nil {
		t.Fatal(err)
	}
	if res.Count != want || res.Rows != nil {
		t.Errorf("file: count = %d with %d rows, want %d and none", res.Count, len(res.Rows), want)
	}
	res, err := copyFinal(dfs, 128, 2, mapreduce.EngineConfig{}, count, fanOut(&calls), false)
	if err != nil || res.Count != want || res.Rows != nil || res.OutputRecords != 500 {
		t.Errorf("sink: count = %d with %d rows from %d records (%v), want %d and none from 500",
			res.Count, len(res.Rows), res.OutputRecords, err, want)
	}
	dfs, q, _ := decodeFixture(t, 0)
	res = &Result{}
	if err := Decode(dfs, "final", q, fanOut(&calls)(), res); err != nil || res.Rows != nil || res.OutputRecords != 0 {
		t.Errorf("empty file: %d rows, %d records, %v", len(res.Rows), res.OutputRecords, err)
	}
	res, err = copyFinal(dfs, 128, 2, mapreduce.EngineConfig{}, q, fanOut(&calls), false)
	if err != nil || res.Rows != nil || res.OutputRecords != 0 {
		t.Errorf("empty sink: %d rows, %d records, %v", len(res.Rows), res.OutputRecords, err)
	}
}

// TestDecodeReportsRangeError: a record that one task's range of the final
// output cannot decode fails that task and so the run, with its retries
// spent; no rows are returned and no output is left behind.
func TestDecodeReportsRangeError(t *testing.T) {
	dfs, q, _ := decodeFixture(t, 1000)
	boom := errors.New("bad record")
	res, err := copyFinal(dfs, 250, 4, mapreduce.EngineConfig{TaskMaxAttempts: 2}, q,
		decoderOf(func(dst []rdf.ID, rec []byte) ([]rdf.ID, int64, error) {
			if i, _ := binary.Uvarint(rec); i == 700 {
				return dst, 0, boom
			}
			return append(dst, 1, 2), 1, nil
		}), false)
	if !errors.Is(err, boom) || res.Rows != nil || !res.Workflow.Failed {
		t.Errorf("err = %v with %d rows (failed %v), want the decode error and none", err, len(res.Rows), res.Workflow.Failed)
	}
	if files := dfs.ListPrefix(""); len(files) != 1 || files[0] != "final" {
		t.Errorf("files left behind: %v", files)
	}
}

// raceEnabled is set by race_test.go: allocation counts mean nothing under
// the race detector.
var raceEnabled bool

// TestDecodeAllocationCeiling: a sink allocates per attempt and per slab,
// not per record or row, so ten times the records costs a handful more
// allocations, not ten times as many.
func TestDecodeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	q := selectQuery(t)
	allocs := func(n int) float64 {
		recs := fixtureRecords(n)
		var calls atomic.Int64
		return testing.AllocsPerRun(20, func() {
			s := &resultSink{decoder: fanOut(&calls)}
			for task := 0; task < 2; task++ {
				a := s.Attempt()
				for _, rec := range recs[task*n/2 : (task+1)*n/2] {
					if err := a.Collect(rec); err != nil {
						t.Fatal(err)
					}
				}
				a.Commit(task)
			}
			(&Result{}).fill(q, s.tasks)
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("sink of two tasks: %.0f allocations for 500 records, %.0f for 5,000", small, large)
	if large > 32 || large-small > 12 {
		t.Errorf("sink: %.0f allocations for 500 records, %.0f for 5,000; ceiling 32, growth ≤ 12", small, large)
	}
}
