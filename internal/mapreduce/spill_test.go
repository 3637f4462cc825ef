package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ntga/internal/hdfs"
)

// spillEngine builds an engine with a bounded sort buffer over a fresh DFS.
func spillEngine(sortBuffer int64, mergeFactor int) *Engine {
	return NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
		SplitRecords: 8, DefaultReducers: 3,
		SortBufferBytes: sortBuffer, MergeFactor: mergeFactor,
	})
}

func wordLines(n int) [][]byte {
	var lines [][]byte
	for j := 0; j < n; j++ {
		lines = append(lines, []byte(fmt.Sprintf("w%d w%d w%d w%d", j%7, j%13, j%3, j%29)))
	}
	return lines
}

func readWords(t *testing.T, d *hdfs.DFS, name string) [][]byte {
	t.Helper()
	recs, err := d.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSpillProducesIdenticalOutput(t *testing.T) {
	// The same wordcount with an unbounded buffer and with a buffer far
	// below the map output size must produce byte-identical output files.
	lines := wordLines(200)
	var outputs [2][][]byte
	var metrics [2]JobMetrics
	for i, buf := range []int64{0, 64} {
		e := spillEngine(buf, 4)
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		m, err := e.Run(wordCountJob("in", "out"))
		if err != nil {
			t.Fatalf("buffer %d: %v", buf, err)
		}
		metrics[i] = m
		outputs[i] = readWords(t, e.DFS(), "out")
		if got := e.DFS().SpillUsed(); got != 0 {
			t.Errorf("buffer %d: SpillUsed after job = %d, want 0", buf, got)
		}
	}
	if len(outputs[0]) == 0 || len(outputs[0]) != len(outputs[1]) {
		t.Fatalf("output lengths: %d vs %d", len(outputs[0]), len(outputs[1]))
	}
	for i := range outputs[0] {
		if !bytes.Equal(outputs[0][i], outputs[1][i]) {
			t.Fatalf("record %d differs: %q vs %q", i, outputs[0][i], outputs[1][i])
		}
	}
	if metrics[0].SpilledBytes != 0 || metrics[0].MergePasses != 0 {
		t.Errorf("unbounded run spilled: %+v", metrics[0])
	}
	if metrics[1].SpilledBytes == 0 || metrics[1].SpilledRecords == 0 {
		t.Errorf("bounded run did not spill: %+v", metrics[1])
	}
	if metrics[1].MergePasses == 0 {
		t.Errorf("bounded run reported no merge passes: %+v", metrics[1])
	}
	if metrics[0].PeakSortBufferBytes <= metrics[1].PeakSortBufferBytes {
		t.Errorf("peak buffer not reduced: unbounded %d vs bounded %d",
			metrics[0].PeakSortBufferBytes, metrics[1].PeakSortBufferBytes)
	}
	// Shuffle metrics are pre-spill and must be unaffected by the budget.
	if metrics[0].MapOutputRecords != metrics[1].MapOutputRecords ||
		metrics[0].MapOutputBytes != metrics[1].MapOutputBytes {
		t.Errorf("map output metrics changed under spilling: %+v vs %+v", metrics[0], metrics[1])
	}
}

func TestSpillMergeFactorForcesIntermediatePasses(t *testing.T) {
	// A tiny merge factor with many runs per partition forces multi-pass
	// external merges; output must still be correct.
	e := spillEngine(48, 2)
	lines := wordLines(300)
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	// Every partition's final merge is one pass; intermediate passes must
	// appear on top of that with factor 2.
	if m.MergePasses <= int64(m.ReduceTasks) {
		t.Errorf("MergePasses = %d, want > %d (intermediate passes with factor 2)",
			m.MergePasses, m.ReduceTasks)
	}
	if e.DFS().SpillUsed() != 0 {
		t.Errorf("SpillUsed after job = %d, want 0", e.DFS().SpillUsed())
	}
	// Cross-check against an unbounded run.
	ref := spillEngine(0, 0)
	if err := ref.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}
	got, want := readWords(t, e.DFS(), "out"), readWords(t, ref.DFS(), "out")
	if len(got) != len(want) {
		t.Fatalf("output lengths: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs: %q vs %q", i, got[i], want[i])
		}
	}
}

// sumCombiner folds uvarint-encoded counts, the classic wordcount combiner.
func sumCombiner() Combiner {
	return CombinerFunc(func(_ []byte, values [][]byte) ([][]byte, error) {
		var total uint64
		for _, v := range values {
			n, k := binary.Uvarint(v)
			if k <= 0 {
				return nil, errors.New("bad count")
			}
			total += n
		}
		return [][]byte{binary.AppendUvarint(nil, total)}, nil
	})
}

func countingJob(input, output string) *Job {
	return &Job{
		Name:   "count",
		Inputs: []string{input},
		Output: output,
		Mapper: MapperFunc(func(_ string, record []byte, out Emitter) error {
			one := binary.AppendUvarint(nil, 1)
			for _, w := range strings.Fields(string(record)) {
				if err := out.Emit([]byte(w), one); err != nil {
					return err
				}
			}
			return nil
		}),
		Combiner: sumCombiner(),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			vals, err := drainValues(values)
			if err != nil {
				return err
			}
			var total uint64
			for _, v := range vals {
				n, k := binary.Uvarint(v)
				if k <= 0 {
					return errors.New("bad count")
				}
				total += n
			}
			return out.Collect([]byte(fmt.Sprintf("%s\t%d", key, total)))
		}),
	}
}

func TestCombinerFoldsAtSpillTime(t *testing.T) {
	lines := wordLines(200)
	// Same job with and without the combiner at the same tight budget: the
	// combined run must spill strictly fewer records (folding happens at
	// spill time), and an unbounded combined run must match its output.
	withoutCombiner := func() *Job {
		j := countingJob("in", "out")
		j.Combiner = nil
		return j
	}
	plain := spillEngine(64, 4)
	if err := plain.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	pm, err := plain.Run(withoutCombiner())
	if err != nil {
		t.Fatal(err)
	}
	var outputs [2][][]byte
	var metrics [2]JobMetrics
	for i, buf := range []int64{0, 64} {
		e := spillEngine(buf, 4)
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		m, err := e.Run(countingJob("in", "out"))
		if err != nil {
			t.Fatal(err)
		}
		metrics[i] = m
		outputs[i] = readWords(t, e.DFS(), "out")
		// Map output counters are pre-combine and budget-independent.
		if m.MapOutputRecords != int64(200*4) {
			t.Errorf("buffer %d: MapOutputRecords = %d, want %d", buf, m.MapOutputRecords, 200*4)
		}
	}
	if metrics[1].SpilledRecords == 0 || metrics[1].SpilledRecords >= pm.SpilledRecords {
		t.Errorf("combiner did not fold at spill time: spilled %d with combiner vs %d without",
			metrics[1].SpilledRecords, pm.SpilledRecords)
	}
	if len(outputs[0]) == 0 || len(outputs[0]) != len(outputs[1]) {
		t.Fatalf("output lengths: %d vs %d", len(outputs[0]), len(outputs[1]))
	}
	for i := range outputs[0] {
		if !bytes.Equal(outputs[0][i], outputs[1][i]) {
			t.Fatalf("record %d differs: %q vs %q", i, outputs[0][i], outputs[1][i])
		}
	}
	// Sanity: totals must match the input (200 lines × 4 words).
	var total int
	for _, r := range outputs[1] {
		parts := strings.Split(string(r), "\t")
		n, _ := strconv.Atoi(parts[1])
		total += n
	}
	if total != 200*4 {
		t.Errorf("combined counts sum to %d, want %d", total, 200*4)
	}
}

func TestSpillWithFaultInjectionLeaksNothing(t *testing.T) {
	// A spilling job under heavy fault injection must release every spill
	// file (failed attempts discard theirs) and still produce output
	// identical to a failure-free run.
	lines := wordLines(120)
	clean := spillEngine(64, 3)
	faulty := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
		SplitRecords: 8, DefaultReducers: 3,
		SortBufferBytes: 64, MergeFactor: 3,
		TaskMaxAttempts: 8, Faults: &FaultPlan{Rate: 0.05, Seed: 11},
	})
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
			t.Error("faulty engine recorded no retries at a 5% per-checkpoint failure rate")
		}
		if got := e.DFS().SpillUsed(); got != 0 {
			t.Errorf("engine %d: SpillUsed after job = %d, want 0 (leaked spill files)", i, got)
		}
		sm := e.DFS().Metrics()
		if sm.SpillFilesCreated != sm.SpillFilesReleased {
			t.Errorf("engine %d: spill files created %d != released %d",
				i, sm.SpillFilesCreated, sm.SpillFilesReleased)
		}
		outputs[i] = readWords(t, e.DFS(), "out")
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

func TestSpillReleasedOnFailedJob(t *testing.T) {
	// A job that spills and then fails outright must leave no spill bytes
	// and no output or part files.
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{
		SplitRecords: 8, DefaultReducers: 2, SortBufferBytes: 32,
	})
	if err := e.DFS().WriteFile("in", wordLines(50)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	job := wordCountJob("in", "out")
	job.StreamReducer = StreamReducerFunc(func([]byte, ValueIter, Collector) error { return boom })
	if _, err := e.Run(job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := e.DFS().SpillUsed(); got != 0 {
		t.Errorf("SpillUsed after failed job = %d, want 0", got)
	}
	for _, f := range e.DFS().List() {
		if f != "in" {
			t.Errorf("failed job left file %q", f)
		}
	}
}

func TestStreamReducerSeesSortedValues(t *testing.T) {
	// A StreamReducer job: values must arrive through the iterator in
	// nondecreasing byte order, under spilling and across many runs.
	e := spillEngine(20, 2)
	var lines [][]byte
	for j := 0; j < 90; j++ {
		lines = append(lines, []byte(fmt.Sprintf("k%d,v%02d", j%4, 99-j)))
	}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "streamed", Inputs: []string{"in"}, Output: "out",
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			parts := strings.SplitN(string(r), ",", 2)
			return out.Emit([]byte(parts[0]), []byte(parts[1]))
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			var prev []byte
			n := 0
			for {
				v, ok, err := values.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if prev != nil && bytes.Compare(prev, v) > 0 {
					return fmt.Errorf("values out of order for %s: %q after %q", key, v, prev)
				}
				prev = append(prev[:0], v...)
				n++
			}
			return out.Collect([]byte(fmt.Sprintf("%s:%d", key, n)))
		}),
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpilledBytes == 0 {
		t.Error("test meant to exercise the spill path but nothing spilled")
	}
	counts := map[string]int{}
	for _, r := range readWords(t, e.DFS(), "out") {
		parts := strings.Split(string(r), ":")
		counts[parts[0]], _ = strconv.Atoi(parts[1])
	}
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("k%d", k)
		want := 90 / 4
		if k < 90%4 {
			want++
		}
		if counts[key] != want {
			t.Errorf("group %s: %d values, want %d", key, counts[key], want)
		}
	}
}

func TestStreamReducerMayStopEarly(t *testing.T) {
	// A reducer that abandons the iterator mid-group must not derail
	// grouping of subsequent keys.
	e := spillEngine(32, 2)
	var lines [][]byte
	for j := 0; j < 60; j++ {
		lines = append(lines, []byte(fmt.Sprintf("k%d v", j%3)))
	}
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "early", Inputs: []string{"in"}, Output: "out",
		Mapper: MapperFunc(func(_ string, r []byte, out Emitter) error {
			parts := strings.Fields(string(r))
			return out.Emit([]byte(parts[0]), []byte(parts[1]))
		}),
		StreamReducer: StreamReducerFunc(func(key []byte, values ValueIter, out Collector) error {
			// Consume exactly one value, ignore the rest of the group.
			if _, ok, err := values.Next(); err != nil || !ok {
				return fmt.Errorf("first value: ok=%v err=%v", ok, err)
			}
			return out.Collect(key)
		}),
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReduceInputGroups != 3 {
		t.Errorf("ReduceInputGroups = %d, want 3", m.ReduceInputGroups)
	}
	if m.ReduceOutputRecords != 3 {
		t.Errorf("ReduceOutputRecords = %d, want 3 (one per group)", m.ReduceOutputRecords)
	}
}

func TestWorkflowFailureCleansUpstreamOutputs(t *testing.T) {
	// When a workflow fails partway, the outputs of jobs that had already
	// succeeded must be deleted so capacity-limited retry loops (fig9/12)
	// do not leak simulated disk.
	e := newTestEngine(t, hdfs.Config{})
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("a b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	identity := func(name, in, out string) *Job {
		return &Job{
			Name: name, Inputs: []string{in}, Output: out,
			MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
		}
	}
	failing := &Job{
		Name: "fails", Inputs: []string{"o1"}, Output: "o3",
		ExtraOutputs: []string{"o3x"},
		MapOnly: MapOnlyFunc(func(string, []byte, Collector) error {
			return errors.New("boom")
		}),
	}
	usedBefore := e.DFS().Used()
	wf, err := e.RunWorkflow([]Stage{
		{identity("ok1", "in", "o1"), identity("ok2", "in", "o2")},
		{failing},
	})
	if err == nil {
		t.Fatal("workflow with failing job succeeded")
	}
	if !wf.Failed || wf.FailedJob != "fails" {
		t.Errorf("wf = %+v", wf)
	}
	for _, f := range []string{"o1", "o2", "o3", "o3x"} {
		if e.DFS().Exists(f) {
			t.Errorf("failed workflow left %s behind", f)
		}
	}
	if got := e.DFS().Used(); got != usedBefore {
		t.Errorf("failed workflow leaked %d bytes of simulated disk", got-usedBefore)
	}
	if files := e.DFS().List(); len(files) != 1 || files[0] != "in" {
		t.Errorf("files after failed workflow = %v, want [in]", files)
	}
}

func TestMapOnlySpillConfigIrrelevant(t *testing.T) {
	// Map-only jobs have no shuffle; a tiny sort buffer must not affect
	// them or create spill files.
	e := spillEngine(16, 2)
	if err := e.DFS().WriteFile("in", [][]byte{[]byte("aaaa"), []byte("bbbb")}); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "copy", Inputs: []string{"in"}, Output: "out",
		MapOnly: MapOnlyFunc(func(_ string, r []byte, c Collector) error { return c.Collect(r) }),
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpilledBytes != 0 || e.DFS().Metrics().SpillFilesCreated != 0 {
		t.Errorf("map-only job spilled: %+v", m)
	}
}

// TestSpillMergeReleaseLeavesNoSource: an intermediate merge pass shrinks a
// reduce attempt's source list in place, as the engine's reduce does, and
// releasing the attempt's groupIter must then drop every source the list
// ever held, past its new length too, so the pooled iterator keeps no spill
// run's bytes alive.
func TestSpillMergeReleaseLeavesNoSource(t *testing.T) {
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}), EngineConfig{})
	ac := &attemptCtx{e: e, js: newJobRunState(e, "wf", "job"), ctl: &taskCtl{winner: -1}}
	g := newGroupIter()
	g.add(memSegSource(Segment{Pairs: 1, Data: []byte{1, 'k', 1, 'v'}}))
	nMem := len(g.m.srcs)
	var spills []*hdfs.Spill
	for k := 0; k < 5; k++ {
		w := e.dfs.CreateSpillOn(0)
		if _, err := w.Write([]byte{1, byte('a' + k), 1, 'v'}); err != nil {
			t.Fatal(err)
		}
		s := w.Close()
		spills = append(spills, s)
		g.add(runSegSource(s, Segment{Pairs: 1, Data: s.Slice(0, int(s.Size()))}))
	}
	var passes, recs, size int64
	runs, temps, err := e.mergeRuns(g.m.srcs[nMem:], 2, nil, ac, &passes, &recs, &size)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range temps {
		spills = append(spills, r.spill)
	}
	defer func() {
		for _, s := range spills {
			s.Release()
		}
	}()
	g.m.srcs = append(g.m.srcs[:nMem], runs...)
	if passes != 3 || len(g.m.srcs) != nMem+2 {
		t.Fatalf("5 runs at merge factor 2: %d passes and %d sources, want 3 and %d", passes, len(g.m.srcs), nMem+2)
	}
	held := g.m.srcs[:cap(g.m.srcs)]
	g.release()
	for i, s := range held {
		if s.spill != nil || s.seg.Data != nil {
			t.Errorf("released groupIter still holds source %d of %d", i, len(held))
		}
	}
}

// TestSpillBatchedPassFailsAtTheSamePair: a merge pass writes its pairs in
// batches, but a pass that runs out of spill disk must fail exactly where
// writing pair by pair did — with the same error, the same bytes written
// and charged before it, and the same peak — whatever the disk's size and
// whatever another spill already holds on the node.
func TestSpillBatchedPassFailsAtTheSamePair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pairs [][]byte
	total := 0
	for i := 0; i < 3000; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 2+rng.Intn(200))
		pairs, total = append(pairs, p), total+len(p)
	}
	for _, capacity := range []int64{1, 100, 65536, 65537, 100003, int64(total) - 1, int64(total), int64(total) + 500} {
		for _, held := range []int{0, 77} {
			run := func(batched bool) (int, hdfs.Metrics, int64, string) {
				d := hdfs.New(hdfs.Config{Nodes: 1, LocalSpillPerNode: capacity + int64(held)})
				if held > 0 {
					other := d.CreateSpillOn(0)
					if _, err := other.Write(make([]byte, held)); err != nil {
						t.Fatal(err)
					}
				}
				w := d.CreateSpillOn(0)
				var err error
				if batched {
					pw := passWriter{w: w}
					for _, p := range pairs {
						if err = pw.add(p); err != nil {
							break
						}
					}
					if err == nil {
						err = pw.flush()
					}
				} else {
					for _, p := range pairs {
						if _, err = w.Write(p); err != nil {
							break
						}
					}
				}
				msg := ""
				if err != nil {
					if !errors.Is(err, hdfs.ErrDiskFull) {
						t.Fatalf("capacity %d: %v", capacity, err)
					}
					msg = err.Error()
				}
				return w.Len(), d.Metrics(), d.PeakSpillUsed(), msg
			}
			n, m, peak, msg := run(true)
			wn, wm, wpeak, wmsg := run(false)
			if n != wn || m != wm || peak != wpeak || msg != wmsg {
				t.Errorf("capacity %d, %d held: batched wrote %d bytes (metrics %+v, peak %d, %q); pair by pair %d (%+v, %d, %q)",
					capacity, held, n, m, peak, msg, wn, wm, wpeak, wmsg)
			}
		}
	}
}
