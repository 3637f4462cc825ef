package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ntga/internal/hdfs"
	"ntga/internal/trace"
)

// chaosLines builds a seeded wordcount corpus big enough for several map
// splits and non-trivial reduce partitions.
func chaosLines(n int) [][]byte {
	var lines [][]byte
	for j := 0; j < n; j++ {
		lines = append(lines, []byte(fmt.Sprintf("w%d w%d w%d", j%7, j%13, j%3)))
	}
	return lines
}

// runWordCount writes the corpus, runs the job, and returns the metrics and
// output records.
func runWordCount(t *testing.T, e *Engine, lines [][]byte) (JobMetrics, [][]byte) {
	t.Helper()
	if err := e.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out, err := e.DFS().ReadAll("out")
	if err != nil {
		t.Fatal(err)
	}
	return m, out
}

// assertNoResidue fails if a finished run left attempt-scoped temporaries in
// the DFS namespace or bytes on the node-local spill disks.
func assertNoResidue(t *testing.T, e *Engine) {
	t.Helper()
	if tmps := e.DFS().ListPrefix("_tmp/"); len(tmps) != 0 {
		t.Errorf("leaked attempt temporaries: %v", tmps)
	}
	if used := e.DFS().SpillUsed(); used != 0 {
		t.Errorf("residual local spill bytes: %d", used)
	}
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestMidPhaseChaosByteIdenticalOutput(t *testing.T) {
	// Mid-phase faults interrupt attempts that already hold partial state —
	// buffered map output, spill runs, half-written temp part files. With a
	// generous attempt budget the job must still complete with output
	// byte-identical to a fault-free run, and every attempt-private byte
	// must be reclaimed.
	lines := chaosLines(40)
	clean := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
		EngineConfig{SplitRecords: 8, DefaultReducers: 3, SortBufferBytes: 64, MergeFactor: 2})
	_, want := runWordCount(t, clean, lines)

	sawRetries := false
	sawReclaim := false
	for seed := int64(1); seed <= 8; seed++ {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
			EngineConfig{SplitRecords: 8, DefaultReducers: 3, SortBufferBytes: 64,
				MergeFactor: 2, TaskMaxAttempts: 8,
				Faults: &FaultPlan{Rate: 0.08, Seed: seed}})
		m, got := runWordCount(t, e, lines)
		if !sameRecords(want, got) {
			t.Fatalf("seed %d: chaos output differs from fault-free run", seed)
		}
		assertNoResidue(t, e)
		sawRetries = sawRetries || m.TaskRetries > 0
		sawReclaim = sawReclaim || m.TempBytesReclaimed > 0
	}
	if !sawRetries {
		t.Error("no seed triggered a mid-phase retry — fault plan is not firing")
	}
	if !sawReclaim {
		t.Error("no seed reclaimed attempt-private bytes — failed attempts left no cleanup work")
	}
}

func TestMidPhaseChaosBudgetExhaustionFailsClean(t *testing.T) {
	// Certain mid-phase failure: every attempt dies at its first checkpoint.
	// The job must fail with the injected error and sweep every temporary.
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 2}),
		EngineConfig{SplitRecords: 4, DefaultReducers: 2, TaskMaxAttempts: 2,
			Faults: &FaultPlan{Rate: 1.0, Seed: 3}})
	if err := e.DFS().WriteFile("in", chaosLines(8)); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(wordCountJob("in", "out"))
	if err == nil {
		t.Fatal("job with certain mid-phase failure succeeded")
	}
	if !errors.Is(err, errInjectedFailure) {
		t.Errorf("err = %v, want injected failure", err)
	}
	if !m.Failed {
		t.Error("metrics not marked failed")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("err = %v, want exhaustion after the full 2-attempt budget", err)
	}
	// Failure-path metrics still fold the recovery counters: exhausting a
	// 2-attempt budget means at least one retry was burned and recorded.
	if m.TaskRetries == 0 {
		t.Error("failed job folded no task retries")
	}
	if e.DFS().Exists("out") {
		t.Error("failed job left output")
	}
	assertNoResidue(t, e)
}

func TestNodeFailureRecoversMapOutput(t *testing.T) {
	// A fault that escalates to a node kill takes the node's local spill
	// disk with it. A reduce attempt that trips over the lost map output
	// must trigger map re-execution (on a live node, with fresh attempt
	// numbers), and the job must still produce byte-identical output.
	// Serial task execution keeps each seeded run fully deterministic; the
	// seed scan finds one whose kill lands after map output was spilled.
	lines := chaosLines(40)
	clean := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
		EngineConfig{SplitRecords: 8, DefaultReducers: 3, SortBufferBytes: 64, MergeFactor: 2})
	_, want := runWordCount(t, clean, lines)

	recovered := false
	for seed := int64(1); seed <= 200 && !recovered; seed++ {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
			EngineConfig{SplitRecords: 8, DefaultReducers: 3, SortBufferBytes: 64,
				MergeFactor: 2, TaskMaxAttempts: 8, Slots: newCountingPool(1),
				Faults: &FaultPlan{Rate: 0.02, Seed: seed,
					NodeFailureRate: 1.0, MaxNodeKills: 1}})
		m, got := runWordCount(t, e, lines)
		if !sameRecords(want, got) {
			t.Fatalf("seed %d: output differs from fault-free run after node failure", seed)
		}
		assertNoResidue(t, e)
		if m.NodeKills > 0 {
			if int64(e.DFS().NodesKilled()) != m.NodeKills {
				t.Errorf("seed %d: metrics report %d node kills, DFS reports %d",
					seed, m.NodeKills, e.DFS().NodesKilled())
			}
			if m.NodeKills > 0 && m.MapOutputRecoveries > 0 {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("no seed produced a node kill that forced map-output recovery")
	}
}

// specPlanWorks reports whether, under the given straggler plan, reduce task
// straggler's first attempt sleeps at its entry checkpoint while its backup
// attempt and every other first attempt run clean — the shape that lets a
// speculative backup win. The draw simulation mirrors checkpoint():
// maps see (scan,1)(map,2)(sort,3); reduces see (reduce,1) then either
// (reduce,2)(write,3) or, for an empty partition, (write,2).
func specPlanWorks(job string, nMaps, nReduces int, straggler int, p *FaultPlan) bool {
	draw := func(kind string, task, attempt int, phase string, seq int) float64 {
		return chaosDraw(job, kind, task, attempt, phase, seq, "straggle", p.Seed)
	}
	for t := 0; t < nMaps; t++ {
		for _, c := range []struct {
			phase string
			seq   int
		}{{"scan", 1}, {"map", 2}, {"sort", 3}} {
			if draw("map", t, 0, c.phase, c.seq) < p.StragglerRate {
				return false
			}
		}
	}
	cleanAttempt := func(task, attempt int) bool {
		for _, c := range []struct {
			phase string
			seq   int
		}{{"reduce", 1}, {"reduce", 2}, {"write", 2}, {"write", 3}} {
			if draw("reduce", task, attempt, c.phase, c.seq) < p.StragglerRate {
				return false
			}
		}
		return true
	}
	for t := 0; t < nReduces; t++ {
		if t == straggler {
			continue
		}
		if !cleanAttempt(t, 0) {
			return false
		}
	}
	// The straggler's first attempt must sleep before doing any work, and
	// its backup must run clean.
	return draw("reduce", straggler, 0, "reduce", 1) < p.StragglerRate &&
		cleanAttempt(straggler, 1)
}

func TestSpeculationBeatsStragglingReducer(t *testing.T) {
	// One reduce attempt draws a 120ms injected straggle; its siblings
	// finish in microseconds. Without speculation the job waits out the full
	// sleep; with speculation a backup attempt commits first and the sleeper
	// is killed, strictly reducing wall-clock.
	const nReduces = 3
	lines := chaosLines(40)
	clean := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
		EngineConfig{SplitRecords: 8, DefaultReducers: nReduces})
	cm, want := runWordCount(t, clean, lines)

	plan := &FaultPlan{StragglerRate: 0.15, StragglerDelay: 120 * time.Millisecond}
	found := false
	for seed := int64(1); seed <= 2000 && !found; seed++ {
		plan.Seed = seed
		for s := 0; s < nReduces; s++ {
			if specPlanWorks("wordcount", cm.MapTasks, nReduces, s, plan) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no seed isolates a single straggling reduce attempt")
	}

	mk := func(speculate bool) *Engine {
		return NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
			EngineConfig{SplitRecords: 8, DefaultReducers: nReduces, TaskMaxAttempts: 4,
				Slots:  newCountingPool(4),
				Faults: plan, Speculation: speculate})
	}
	off, offOut := runWordCount(t, mk(false), lines)
	on, onOut := runWordCount(t, mk(true), lines)

	if !sameRecords(want, offOut) || !sameRecords(want, onOut) {
		t.Fatal("straggler runs changed the output")
	}
	if off.Duration < plan.StragglerDelay {
		t.Fatalf("speculation-off run finished in %v, expected to wait out the %v straggle",
			off.Duration, plan.StragglerDelay)
	}
	if on.SpeculativeLaunched == 0 || on.SpeculativeWins == 0 {
		t.Fatalf("speculation did not engage: launched=%d wins=%d",
			on.SpeculativeLaunched, on.SpeculativeWins)
	}
	if on.KilledAttempts == 0 {
		t.Error("winning backup did not kill the straggling attempt")
	}
	if on.Duration >= off.Duration {
		t.Errorf("speculation did not reduce wall-clock: on=%v off=%v", on.Duration, off.Duration)
	}
	if off.SpeculativeLaunched != 0 {
		t.Errorf("speculation-off run launched %d backups", off.SpeculativeLaunched)
	}
}

func TestStageFailureLeavesEarlierStageIntact(t *testing.T) {
	// A job that dies mid-flight — including one whose attempts were killed
	// inside their write phase — must not corrupt the committed outputs of
	// an earlier stage: temp-scoped writes never touch published names.
	e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
		EngineConfig{SplitRecords: 2, DefaultReducers: 3, TaskMaxAttempts: 2})
	if err := e.DFS().WriteFile("in", chaosLines(24)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(wordCountJob("in", "mid")); err != nil {
		t.Fatal(err)
	}
	midBefore, err := e.DFS().ReadAll("mid")
	if err != nil {
		t.Fatal(err)
	}

	e.cfg.Faults = &FaultPlan{Rate: 1.0, Seed: 9}
	if _, err := e.Run(wordCountJob("mid", "out")); err == nil {
		t.Fatal("stage 2 with certain failure succeeded")
	}
	if e.DFS().Exists("out") {
		t.Error("failed stage left partial output under its final name")
	}
	midAfter, err := e.DFS().ReadAll("mid")
	if err != nil {
		t.Fatalf("stage 1 output unreadable after stage 2 failure: %v", err)
	}
	if !sameRecords(midBefore, midAfter) {
		t.Error("stage 2 failure corrupted stage 1 output")
	}
	assertNoResidue(t, e)
}

func TestNodeDeathPreservesCommittedDFSFiles(t *testing.T) {
	// DFS blocks are replicated; only node-local spill disks die with a
	// node. A later stage that loses a node must still read the earlier
	// stage's committed output — and its own output must match a clean run.
	lines := chaosLines(32)
	clean := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
		EngineConfig{SplitRecords: 2, DefaultReducers: 3, SortBufferBytes: 64})
	if err := clean.DFS().WriteFile("in", lines); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Run(wordCountJob("in", "mid")); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Run(wordCountJob("mid", "out")); err != nil {
		t.Fatal(err)
	}
	wantMid, _ := clean.DFS().ReadAll("mid")
	wantOut, _ := clean.DFS().ReadAll("out")

	killed := false
	for seed := int64(1); seed <= 200 && !killed; seed++ {
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}),
			EngineConfig{SplitRecords: 2, DefaultReducers: 3, SortBufferBytes: 64,
				TaskMaxAttempts: 8, Slots: newCountingPool(1)})
		if err := e.DFS().WriteFile("in", lines); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(wordCountJob("in", "mid")); err != nil {
			t.Fatal(err)
		}
		e.cfg.Faults = &FaultPlan{Rate: 0.02, Seed: seed,
			NodeFailureRate: 1.0, MaxNodeKills: 1}
		m, err := e.Run(wordCountJob("mid", "out"))
		if err != nil {
			t.Fatalf("seed %d: stage 2 failed: %v", seed, err)
		}
		if m.NodeKills == 0 {
			continue
		}
		killed = true
		gotMid, err := e.DFS().ReadAll("mid")
		if err != nil {
			t.Fatalf("seed %d: stage 1 output unreadable after node death: %v", seed, err)
		}
		if !sameRecords(wantMid, gotMid) {
			t.Errorf("seed %d: node death corrupted stage 1 output", seed)
		}
		gotOut, _ := e.DFS().ReadAll("out")
		if !sameRecords(wantOut, gotOut) {
			t.Errorf("seed %d: stage 2 output differs after node death", seed)
		}
		assertNoResidue(t, e)
	}
	if !killed {
		t.Fatal("no seed produced a node kill in stage 2")
	}
}

func TestChaosTraceDeterministicSpanTree(t *testing.T) {
	// Mid-phase chaos produces partial attempt spans (an attempt that died
	// in its sort phase traces scan+map but no sort). The span tree must
	// still be identical across runs of the same seeded plan, with retried
	// attempts visible by number.
	run := func(seed int64) string {
		tr := trace.New()
		e := NewEngine(hdfs.New(hdfs.Config{Nodes: 4}), EngineConfig{
			SplitRecords: 8, DefaultReducers: 3, SortBufferBytes: 64, MergeFactor: 2,
			TaskMaxAttempts: 8, Tracer: tr,
			Faults: &FaultPlan{Rate: 0.05, Seed: seed},
		})
		if err := e.DFS().WriteFile("in", chaosLines(64)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunWorkflowNamed("chaos-wf", []Stage{
			{wordCountJob("in", "mid")},
			{wordCountJob("mid", "out")},
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return trace.TreeString(tr.Roots())
	}
	for seed := int64(1); seed <= 20; seed++ {
		s1 := run(seed)
		if !strings.Contains(s1, "attempt=1") {
			continue // this seed injected no mid-phase failure; try the next
		}
		s2 := run(seed)
		if s1 != s2 {
			t.Fatalf("seed %d: span trees differ between identical chaos runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				seed, s1, s2)
		}
		return
	}
	t.Fatal("no seed produced a retried (attempt=1) span")
}
