package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ntga/internal/hdfs"
)

func newTestEngine(t *testing.T, cfg hdfs.Config) *Engine {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	return NewEngine(hdfs.New(cfg), EngineConfig{SplitRecords: 4, DefaultReducers: 3})
}

// wordCount splits records on spaces and counts words.
func wordCountJob(input, output string) *Job {
	return &Job{
		Name:   "wordcount",
		Inputs: []string{input},
		Output: output,
		Mapper: MapperFunc(func(_ string, record []byte, out Emitter) error {
			for _, w := range strings.Fields(string(record)) {
				if err := out.Emit([]byte(w), []byte{1}); err != nil {
					return err
				}
			}
			return nil
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			n, err := countValues(values)
			if err != nil {
				return err
			}
			return out.Collect([]byte(fmt.Sprintf("%s\t%d", key, n)))
		}),
	}
}

// countValues drains one reduce group and returns its size.
func countValues(values ValueIter) (int, error) {
	n := 0
	for {
		_, ok, err := values.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// drainValues copies one reduce group's values out of the iterator.
func drainValues(values ValueIter) ([][]byte, error) {
	var vals [][]byte
	for {
		v, ok, err := values.Next()
		if err != nil || !ok {
			return vals, err
		}
		vals = append(vals, v)
	}
}

func TestWordCount(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	lines := [][]byte{
		[]byte("the quick brown fox"),
		[]byte("the lazy dog"),
		[]byte("the fox"),
	}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs, err := e.DFS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range recs {
		parts := strings.Split(string(r), "\t")
		n, _ := strconv.Atoi(parts[1])
		counts[parts[0]] = n
	}
	want := map[string]int{"the": 3, "quick": 1, "brown": 1, "fox": 2, "lazy": 1, "dog": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if m.MapInputRecords != 3 {
		t.Errorf("MapInputRecords = %d, want 3", m.MapInputRecords)
	}
	if m.MapOutputRecords != 9 {
		t.Errorf("MapOutputRecords = %d, want 9", m.MapOutputRecords)
	}
	if m.ReduceInputGroups != int64(len(want)) {
		t.Errorf("ReduceInputGroups = %d, want %d", m.ReduceInputGroups, len(want))
	}
	if m.ReduceOutputRecords != int64(len(want)) {
		t.Errorf("ReduceOutputRecords = %d, want %d", m.ReduceOutputRecords, len(want))
	}
	if m.MapOutputBytes == 0 || m.ReduceOutputBytes == 0 || m.MapInputBytes == 0 {
		t.Errorf("byte counters not populated: %+v", m)
	}
}

func TestDeterministicOutput(t *testing.T) {
	// The same job run twice (with different parallelism) must produce
	// byte-identical output files, because reduce input is fully sorted.
	mkEngine := func(par int) *Engine {
		return NewEngine(hdfs.New(hdfs.Config{Nodes: 2}),
			EngineConfig{SplitRecords: 2, DefaultReducers: 4, Slots: newCountingPool(par)})
	}
	var outputs [2][][]byte
	for i, par := range []int{1, 8} {
		e := mkEngine(par)
		var lines [][]byte
		for j := 0; j < 100; j++ {
			lines = append(lines, []byte(fmt.Sprintf("w%d w%d w%d", j%7, j%13, j%3)))
		}
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(wordCountJob("in", "out")); err != nil {
			t.Fatal(err)
		}
		outputs[i], _ = e.DFS().ReadAll("out")
	}
	if len(outputs[0]) != len(outputs[1]) {
		t.Fatalf("output lengths differ: %d vs %d", len(outputs[0]), len(outputs[1]))
	}
	for i := range outputs[0] {
		if !bytes.Equal(outputs[0][i], outputs[1][i]) {
			t.Fatalf("record %d differs: %q vs %q", i, outputs[0][i], outputs[1][i])
		}
	}
}

func TestTaggedJoin(t *testing.T) {
	// Classic reduce-side equi-join across two inputs; the mapper tags
	// records by input file.
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("users", [][]byte{
		[]byte("1,alice"), []byte("2,bob"), []byte("3,carol"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.DFS().WriteFile("orders", [][]byte{
		[]byte("1,book"), []byte("1,pen"), []byte("3,mug"), []byte("9,ghost"),
	}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:   "join",
		Inputs: []string{"users", "orders"},
		Output: "joined",
		Mapper: MapperFunc(func(input string, record []byte, out Emitter) error {
			parts := strings.SplitN(string(record), ",", 2)
			tag := "U:"
			if input == "orders" {
				tag = "O:"
			}
			return out.Emit([]byte(parts[0]), []byte(tag+parts[1]))
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			vals, err := drainValues(values)
			if err != nil {
				return err
			}
			var users, orders []string
			for _, v := range vals {
				s := string(v)
				if strings.HasPrefix(s, "U:") {
					users = append(users, s[2:])
				} else {
					orders = append(orders, s[2:])
				}
			}
			for _, u := range users {
				for _, o := range orders {
					if err := out.Collect([]byte(fmt.Sprintf("%s:%s:%s", key, u, o))); err != nil {
						return err
					}
				}
			}
			return nil
		}),
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	recs, _ := e.DFS().ReadAll("joined")
	var got []string
	for _, r := range recs {
		got = append(got, string(r))
	}
	sort.Strings(got)
	want := []string{"1:alice:book", "1:alice:pen", "3:carol:mug"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("join = %v, want %v", got, want)
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:   "lengths",
		Inputs: []string{"in"},
		Output: "out",
		MapOnly: MapOnlyFunc(func(_ string, record []byte, out Collector) error {
			return out.Collect([]byte(strconv.Itoa(len(record))))
		}),
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !m.MapOnly {
		t.Error("metrics not flagged MapOnly")
	}
	if m.MapOutputBytes != 0 || m.MapOutputRecords != 0 {
		t.Errorf("map-only job recorded shuffle traffic: %+v", m)
	}
	recs, _ := e.DFS().ReadAll("out")
	var got []string
	for _, r := range recs {
		got = append(got, string(r))
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"1", "2", "3"}) {
		t.Errorf("output = %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", nil); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatalf("Run on empty input: %v", err)
	}
	if m.ReduceOutputRecords != 0 {
		t.Errorf("ReduceOutputRecords = %d, want 0", m.ReduceOutputRecords)
	}
	if !e.DFS().Exists("out") {
		t.Error("empty output file not created")
	}
}

func TestJobValidation(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	cases := []*Job{
		{Inputs: []string{"x"}, Output: "y", MapOnly: MapOnlyFunc(nil)},          // no name
		{Name: "j", Output: "y", MapOnly: MapOnlyFunc(nil)},                      // no inputs
		{Name: "j", Inputs: []string{"x"}, MapOnly: MapOnlyFunc(nil)},            // no output
		{Name: "j", Inputs: []string{"x"}, Output: "y"},                          // no mapper
		{Name: "j", Inputs: []string{"x"}, Output: "y", Mapper: MapperFunc(nil)}, // no reducer
	}
	for i, job := range cases {
		if _, err := e.Run(job); err == nil {
			t.Errorf("case %d: invalid job ran without error", i)
		}
	}
}

func TestMissingInputFails(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	_, err := e.Run(wordCountJob("missing", "out"))
	if !errors.Is(err, hdfs.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := &Job{
		Name: "failmap", Inputs: []string{"in"}, Output: "out",
		Mapper:        MapperFunc(func(string, []byte, Emitter) error { return boom }),
		StreamReducer: StreamReducerFunc(func([]byte, ValueIter, Collector) error { return nil }),
	}
	m, err := e.Run(job)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if !m.Failed {
		t.Error("metrics not flagged Failed")
	}
	if e.DFS().Exists("out") {
		t.Error("failed job left output file")
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := &Job{
		Name: "failred", Inputs: []string{"in"}, Output: "out",
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			return out.Emit(r, r)
		}),
		StreamReducer: StreamReducerFunc(func([]byte, ValueIter, Collector) error { return boom }),
	}
	if _, err := e.Run(job); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestDiskFullFailsJob(t *testing.T) {
	// Tiny cluster: amplifying mapper/reducer overflows the disk on write.
	dfs := hdfs.New(hdfs.Config{Nodes: 2, CapacityPerNode: 2048, BlockSize: 256, Replication: 2})
	e := NewEngine(dfs, EngineConfig{SplitRecords: 4, DefaultReducers: 2})
	if err := dfs.WriteFile("in", [][]byte{[]byte("seed")}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "amplify", Inputs: []string{"in"}, Output: "out",
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			for i := 0; i < 64; i++ {
				if err := out.Emit([]byte{byte(i)}, bytes.Repeat([]byte("x"), 100)); err != nil {
					return err
				}
			}
			return nil
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			vals, err := drainValues(values)
			if err != nil {
				return err
			}
			for _, v := range vals {
				if err := out.Collect(v); err != nil {
					return err
				}
			}
			return nil
		}),
	}
	m, err := e.Run(job)
	if !ErrIsDiskFull(err) {
		t.Fatalf("err = %v, want disk-full", err)
	}
	if !m.Failed {
		t.Error("metrics not flagged Failed")
	}
	if dfs.Exists("out") {
		t.Error("failed job left partial output")
	}
}

func TestCustomPartitionerAndReducers(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("a b c d e f")}); err != nil {
		t.Fatal(err)
	}
	var maxPart int
	job := wordCountJob("in", "out")
	job.NumReducers = 5
	job.Partitioner = func(key []byte, n int) int {
		if n != 5 {
			return -1 // trigger engine error if NumReducers not honored
		}
		p := int(key[0]) % n
		if p > maxPart {
			maxPart = p
		}
		return p
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReduceTasks != 5 {
		t.Errorf("ReduceTasks = %d, want 5", m.ReduceTasks)
	}
}

func TestPartitionerRangeChecked(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob("in", "out")
	job.Partitioner = func([]byte, int) int { return 99 }
	if _, err := e.Run(job); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

func TestWorkflowStages(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("b a c"), []byte("a c")}); err != nil {
		t.Fatal(err)
	}
	// Stage 1: two independent jobs; stage 2: consumes both.
	identity := func(name, in, out string) *Job {
		return &Job{
			Name: name, Inputs: []string{in}, Output: out,
			MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
		}
	}
	concat := &Job{
		Name: "concat", Inputs: []string{"o1", "o2"}, Output: "final",
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			return out.Emit([]byte("k"), r)
		}),
		StreamReducer: StreamReducerFunc(func(_ []byte, values ValueIter, out Collector) error {
			n, err := countValues(values)
			if err != nil {
				return err
			}
			return out.Collect([]byte(strconv.Itoa(n)))
		}),
	}
	stages := []Stage{
		{identity("copy1", "in", "o1"), identity("copy2", "in", "o2")},
		{concat},
	}
	wf, err := e.RunWorkflow(stages)
	if err != nil {
		t.Fatal(err)
	}
	if wf.Cycles != 3 {
		t.Errorf("Cycles = %d, want 3", wf.Cycles)
	}
	if len(wf.Jobs) != 3 {
		t.Errorf("len(Jobs) = %d, want 3", len(wf.Jobs))
	}
	recs, _ := e.DFS().ReadAll("final")
	if len(recs) != 1 || string(recs[0]) != "4" {
		t.Errorf("final = %q, want [4]", recs)
	}
	if got := CountScansOf(stages, "in"); got != 2 {
		t.Errorf("CountScansOf(in) = %d, want 2", got)
	}
	if wf.TotalMapInputBytes() == 0 || wf.TotalReduceOutputBytes() == 0 {
		t.Error("workflow byte totals not populated")
	}
}

func TestWorkflowFailureStopsLaterStages(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	failJob := &Job{
		Name: "fails", Inputs: []string{"in"}, Output: "o1",
		MapOnly: MapOnlyFunc(func(string, []byte, Collector) error {
			return errors.New("boom")
		}),
	}
	neverRuns := &Job{
		Name: "never", Inputs: []string{"o1"}, Output: "o2",
		MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
	}
	wf, err := e.RunWorkflow([]Stage{{failJob}, {neverRuns}})
	if err == nil {
		t.Fatal("workflow with failing job succeeded")
	}
	if !wf.Failed || wf.FailedJob != "fails" {
		t.Errorf("wf = %+v", wf)
	}
	if len(wf.Jobs) != 1 {
		t.Errorf("executed %d jobs, want 1", len(wf.Jobs))
	}
	if e.DFS().Exists("o2") {
		t.Error("later stage ran after failure")
	}
}

func TestHashPartitionerInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, uint64(i*2654435761))
		p := HashPartitioner(key, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestCompareBytes(t *testing.T) {
	// The shuffle comparator (key prefix first, compareTied on a tie) must
	// agree with bytewise order on keys and, under equal keys, on values —
	// including keys that cross the 8-byte prefix and keys that differ only
	// by trailing zeros, which share a prefix.
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "a", -1},
		{"abc", "abd", -1}, {"abd", "abc", 1}, {"abc", "abc", 0},
		{"ab", "abc", -1}, {"abc", "ab", 1},
		{"ab", "ab\x00", -1}, {"ab\x00", "ab", 1}, {"", "\x00", -1},
		{"abcdefgh", "abcdefgh", 0}, {"abcdefgh", "abcdefgi", -1},
		{"abcdefgh", "abcdefghi", -1}, {"abcdefghi", "abcdefgh", 1},
		{"abcdefgh", "abcdefgh\x00", -1}, {"abcdefghi", "abcdefghj", -1},
		{"abcdefghj", "abcdefghi", 1}, {"abcdefghi", "abcdefghi", 0},
		{"abcdefgi", "abcdefghz", 1}, {"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00", -1},
	}
	for _, c := range cases {
		a, b := []byte(c.a), []byte(c.b)
		for _, pair := range [][2]KV{
			{{a, nil}, {b, nil}},                 // keys
			{{[]byte("k"), a}, {[]byte("k"), b}}, // values under a short key
			{{stem9, a}, {stem9, b}},             // values under a long key
		} {
			if got := shuffleCompare(pair[0], pair[1]); got != c.want {
				t.Errorf("%q vs %q: compare = %d, want %d", pair[0], pair[1], got, c.want)
			}
		}
		if got := bytes.Compare(a, b); got != c.want {
			t.Errorf("bytes.Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

var stem9 = []byte("stemstem9")

// shuffleCompare orders two pairs the way the sort buffer and the merge heap
// do: by key prefix, then compareTied on a tie.
func shuffleCompare(x, y KV) int {
	px, py := keyPrefix(x.Key), keyPrefix(y.Key)
	if px != py {
		return cmp.Compare(px, py)
	}
	return cmp.Compare(compareTied(px, &x, &y), 0)
}

func TestMultipleOutputs(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{
		[]byte("a 1"), []byte("b 2"), []byte("a 3"), []byte("c 4"),
	}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "demux", Inputs: []string{"in"}, Output: "out-main",
		ExtraOutputs: []string{"out-a", "out-b"},
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			return out.Emit(r[:1], r[2:])
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			vals, err := drainValues(values)
			if err != nil {
				return err
			}
			nc := out.(NamedCollector)
			for _, v := range vals {
				switch key[0] {
				case 'a':
					if err := nc.CollectTo("out-a", v); err != nil {
						return err
					}
				case 'b':
					if err := nc.CollectTo("out-b", v); err != nil {
						return err
					}
				default:
					if err := out.Collect(v); err != nil {
						return err
					}
				}
			}
			return nil
		}),
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	count := func(name string) int {
		recs, err := e.DFS().ReadAll(name)
		if err != nil {
			t.Fatalf("ReadAll(%s): %v", name, err)
		}
		return len(recs)
	}
	if count("out-a") != 2 || count("out-b") != 1 || count("out-main") != 1 {
		t.Errorf("outputs = a:%d b:%d main:%d", count("out-a"), count("out-b"), count("out-main"))
	}
	if m.ReduceOutputRecords != 4 {
		t.Errorf("ReduceOutputRecords = %d, want 4 across all outputs", m.ReduceOutputRecords)
	}
}

func TestMultipleOutputsValidation(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Undeclared CollectTo target fails the job and cleans everything up.
	job := &Job{
		Name: "bad", Inputs: []string{"in"}, Output: "out",
		ExtraOutputs: []string{"declared"},
		MapOnly: MapOnlyFunc(func(_ string, r []byte, out Collector) error {
			return out.(NamedCollector).CollectTo("undeclared", r)
		}),
	}
	if _, err := e.Run(job); err == nil {
		t.Error("undeclared CollectTo accepted")
	}
	for _, f := range []string{"out", "declared"} {
		if e.DFS().Exists(f) {
			t.Errorf("failed job left %s", f)
		}
	}
	// Duplicate output names rejected.
	dup := &Job{
		Name: "dup", Inputs: []string{"in"}, Output: "out",
		ExtraOutputs: []string{"out"},
		MapOnly:      MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
	}
	if _, err := e.Run(dup); err == nil {
		t.Error("duplicate output name accepted")
	}
	empty := &Job{
		Name: "empty", Inputs: []string{"in"}, Output: "out",
		ExtraOutputs: []string{""},
		MapOnly:      MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
	}
	if _, err := e.Run(empty); err == nil {
		t.Error("empty extra output name accepted")
	}
}

func TestMultipleOutputsCreatedEvenIfEmpty(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "quiet", Inputs: []string{"in"}, Output: "out",
		ExtraOutputs: []string{"never-used"},
		MapOnly:      MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if !e.DFS().Exists("never-used") {
		t.Error("unused extra output not created")
	}
}

func TestTaskRetryRecoversInjectedFailures(t *testing.T) {
	// With a 20% injected failure rate and a 6-attempt budget, the job
	// completes, counts its retries, and produces exactly the same output
	// as a failure-free run.
	clean := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}),
		EngineConfig{SplitRecords: 2, DefaultReducers: 3})
	faulty := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}),
		EngineConfig{SplitRecords: 2, DefaultReducers: 3,
			TaskMaxAttempts: 6, Faults: &FaultPlan{Rate: 0.2, Seed: 7}})
	var lines [][]byte
	for j := 0; j < 40; j++ {
		lines = append(lines, []byte(fmt.Sprintf("w%d w%d", j%5, j%11)))
	}
	var outputs [2][][]byte
	for i, e := range []*Engine{clean, faulty} {
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		m, err := e.Run(wordCountJob("in", "out"))
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if i == 1 && m.TaskRetries == 0 {
			t.Error("faulty engine recorded no retries at 20% failure rate")
		}
		if i == 0 && m.TaskRetries != 0 {
			t.Errorf("clean engine recorded %d retries", m.TaskRetries)
		}
		outputs[i], _ = e.DFS().ReadAll("out")
	}
	if len(outputs[0]) != len(outputs[1]) {
		t.Fatalf("output sizes differ: %d vs %d", len(outputs[0]), len(outputs[1]))
	}
	for i := range outputs[0] {
		if !bytes.Equal(outputs[0][i], outputs[1][i]) {
			t.Fatalf("record %d differs after retries: %q vs %q", i, outputs[0][i], outputs[1][i])
		}
	}
}

func TestTaskRetryBudgetExhaustion(t *testing.T) {
	// Certain failure with a single attempt: the job must fail cleanly.
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 1}),
		EngineConfig{SplitRecords: 4, TaskMaxAttempts: 1, Faults: &FaultPlan{Rate: 1.0}})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err == nil {
		t.Fatal("job with certain task failure succeeded")
	}
	if !errors.Is(err, errInjectedFailure) {
		t.Errorf("err = %v, want injected failure", err)
	}
	if !m.Failed {
		t.Error("metrics not marked failed")
	}
	if e.DFS().Exists("out") {
		t.Error("failed job left output")
	}
}

func TestReduceSkewMetric(t *testing.T) {
	e := newTestEngine(t, hdfs.Config{})
	// All map output lands on a single key → one reducer gets everything.
	if err := e.DFS().WriteFile("in", [][]byte{
		[]byte("k k k k"), []byte("k k k k"),
	}); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxReducePartitionRecords != 8 {
		t.Errorf("MaxReducePartitionRecords = %d, want 8", m.MaxReducePartitionRecords)
	}
	// Skew = max/avg = 8 / (8/3 reducers) = 3 (the reducer count).
	if m.ReduceSkew < 2.9 || m.ReduceSkew > 3.1 {
		t.Errorf("ReduceSkew = %v, want ≈3 (all records on one of 3 reducers)", m.ReduceSkew)
	}
}

func TestSortKVsProperties(t *testing.T) {
	// Property: the sort buffer yields exactly the order of a stable sort
	// by (partition, key, value) in bytes.Compare order, on keys that
	// straddle the 8-byte prefix, share long prefixes and tie on zero
	// padding, over a partition count that needs one byte or two.
	f := func(seed int64, wide bool) bool {
		rng := rand.New(rand.NewSource(seed))
		kvs := boundaryKVs(rng, 300)
		nParts := 3
		if wide {
			nParts = 300
		}
		parts := make([]int, len(kvs))
		var s sortBuffer
		for i, kv := range kvs {
			parts[i] = rng.Intn(nParts)
			if err := s.add(parts[i], kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		var want []KV
		for p := 0; p < nParts; p++ {
			var part []KV
			for i, kv := range kvs {
				if parts[i] == p {
					part = append(part, kv)
				}
			}
			sort.SliceStable(part, func(i, j int) bool { return compareKV(&part[i], &part[j]) < 0 })
			want = append(want, part...)
		}
		s.sort()
		got := make([]KV, len(s.ents))
		for i := range s.ents {
			got[i] = s.pair(&s.ents[i])
			if i > 0 && s.ents[i].part < s.ents[i-1].part {
				return false
			}
		}
		return sameKVs(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// boundaryKVs draws up to n pairs whose keys and values are 0–20 bytes over
// the alphabet {0x00, 0x01}, cut from one shared stem so that long common
// prefixes are the rule, plus the pairs a prefix comparator can get wrong:
// empty keys and values, keys of exactly 8 and 9 bytes, and short keys that
// differ only by a trailing zero.
func boundaryKVs(rng *rand.Rand, n int) []KV {
	stem := make([]byte, 20)
	for i := range stem {
		stem[i] = byte(rng.Intn(2))
	}
	draw := func() []byte {
		b := append([]byte(nil), stem[:rng.Intn(len(stem)+1)]...)
		if len(b) > 0 && rng.Intn(2) == 0 {
			b[len(b)-1-rng.Intn(min(len(b), 4))] ^= 1
		}
		return b
	}
	kvs := []KV{
		{[]byte{}, []byte{}}, {[]byte{}, []byte{0}}, {[]byte{0}, []byte{}},
		{[]byte("ab"), []byte("v")}, {[]byte("ab\x00"), []byte("v")}, {[]byte("ab\x00\x00"), []byte{}},
		{stem[:8], draw()}, {stem[:9], draw()}, {append(stem[:8:8], 0), draw()},
	}
	for len(kvs) < n && rng.Intn(n) != 0 {
		kvs = append(kvs, KV{draw(), draw()})
	}
	rng.Shuffle(len(kvs), func(i, j int) { kvs[i], kvs[j] = kvs[j], kvs[i] })
	return kvs
}

// sameKVs reports whether two pair sequences are byte-identical.
func sameKVs(got, want []KV) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return false
		}
	}
	return true
}
