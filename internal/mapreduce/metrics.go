package mapreduce

import (
	"sort"
	"time"
)

// TaskSummary condenses the wall-clock durations of one phase's tasks into
// the distribution shape that explains a slow job: the fastest, median, and
// slowest task, plus the straggler ratio (slowest ÷ median — ~1.0 means the
// phase was evenly balanced, large values mean one task gated the barrier).
type TaskSummary struct {
	Tasks            int
	Min, Median, Max time.Duration
	StragglerRatio   float64
}

// summarizeTasks computes a TaskSummary from per-task durations.
func summarizeTasks(durs []time.Duration) TaskSummary {
	if len(durs) == 0 {
		return TaskSummary{}
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := TaskSummary{
		Tasks: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
	}
	if n := len(sorted); n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	if s.Median > 0 {
		s.StragglerRatio = float64(s.Max) / float64(s.Median)
	} else if s.Max > 0 {
		// Median below clock resolution: treat it as one nanosecond so the
		// ratio stays finite while still flagging the imbalance.
		s.StragglerRatio = float64(s.Max)
	} else {
		s.StragglerRatio = 1
	}
	return s
}

// skewOf normalizes the largest per-partition load against a perfectly
// balanced split: 1.0 = even, len(per) = everything on one partition.
func skewOf(per []int64) float64 {
	var total, max int64
	for _, v := range per {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(per)) / float64(total)
}

// FoldTaskStats fills the job's per-task profile from what its tasks
// reported: the map and reduce task-duration summaries, and from the reduce
// tasks' input stats (indexed by partition) the group count, the largest
// partition and the three skew ratios. ReduceSkew reads MapOutputRecords,
// which must already be set. A map-only job passes no reduce stats.
func (m *JobMetrics) FoldTaskStats(mapDurs, reduceDurs []time.Duration, reduces []ReduceStats) {
	m.MapTaskStats = summarizeTasks(mapDurs)
	m.ReduceTaskStats = summarizeTasks(reduceDurs)
	m.ReduceTasks = len(reduces)
	m.ReduceInputGroups, m.MaxReducePartitionRecords = 0, 0
	perGroups := make([]int64, len(reduces))
	perBytes := make([]int64, len(reduces))
	for p, st := range reduces {
		perGroups[p], perBytes[p] = st.Groups, st.InBytes
		m.ReduceInputGroups += st.Groups
		m.MaxReducePartitionRecords = max(m.MaxReducePartitionRecords, st.InPairs)
	}
	m.ReduceKeySkew = skewOf(perGroups)
	m.ReduceByteSkew = skewOf(perBytes)
	if m.MapOutputRecords > 0 && len(reduces) > 0 {
		m.ReduceSkew = float64(m.MaxReducePartitionRecords) * float64(len(reduces)) / float64(m.MapOutputRecords)
	}
}

// JobMetrics records the cost profile of one executed job.
type JobMetrics struct {
	// Job is the job's name (Job.Name at submission).
	Job string

	// Map phase.
	MapInputRecords int64
	MapInputBytes   int64 // bytes scanned from the DFS
	MapTasks        int

	// Shuffle (map output). For map-only jobs these stay zero.
	MapOutputRecords int64
	MapOutputBytes   int64 // the paper's "shuffle cost": Σ len(key)+len(value)

	// Reduce phase.
	ReduceTasks         int
	ReduceInputGroups   int64
	ReduceOutputRecords int64 // records written to the DFS
	ReduceOutputBytes   int64 // bytes written to the DFS

	// MaxReducePartitionRecords is the largest reduce partition's input
	// size; ReduceSkew normalizes it against a perfectly balanced shuffle
	// (1.0 = balanced, nReducers = everything on one reducer). The paper's
	// related work on reducer-routing strategies targets exactly this.
	MaxReducePartitionRecords int64
	ReduceSkew                float64

	// Spill (bounded-memory shuffle). All four stay zero when
	// EngineConfig.SortBufferBytes is unbounded except PeakSortBufferBytes,
	// which always reports the largest in-memory map-output buffer any
	// single map task held.
	SpilledRecords      int64 // records written to local-disk spill runs (post-combine)
	SpilledBytes        int64 // bytes written to local-disk spill runs
	MergePasses         int64 // external merge passes over spilled runs
	PeakSortBufferBytes int64

	// Per-task timing profiles. MapTaskStats covers the map (or map-only)
	// tasks, ReduceTaskStats the reduce tasks; both are populated on every
	// run (tracing not required).
	MapTaskStats    TaskSummary
	ReduceTaskStats TaskSummary

	// Per-reducer skew, normalized like ReduceSkew (1.0 = balanced,
	// ReduceTasks = everything on one reducer): ReduceKeySkew over distinct
	// key groups per reducer, ReduceByteSkew over reduce-input bytes per
	// reducer. Together with the record-based ReduceSkew these separate
	// "one hot key" from "many small keys hashed together".
	ReduceKeySkew  float64
	ReduceByteSkew float64

	// TaskRetries counts task attempts beyond the first (fault injection
	// or real failures recovered by the retry budget).
	TaskRetries int64

	// Fault-tolerance counters (see FaultPlan and EngineConfig.Speculation).
	// SpeculativeLaunched counts backup attempts started for straggling
	// tasks; SpeculativeWins counts tasks whose backup attempt committed
	// first; KilledAttempts counts attempts stopped (or finished too late)
	// because a rival attempt of the same task had already committed.
	SpeculativeLaunched int64
	SpeculativeWins     int64
	KilledAttempts      int64
	// NodeKills counts simulated data-node deaths injected during the job;
	// MapOutputRecoveries counts map tasks re-executed because their spill
	// runs died with a node; TempBytesReclaimed sums the attempt-private
	// bytes (temp part files, spill runs) deleted for failed, killed, or
	// race-losing attempts.
	NodeKills           int64
	MapOutputRecoveries int64
	TempBytesReclaimed  int64

	// Counters sums the operators' counters over the job's tasks, each
	// task's taken from its winning attempt (see Counters). Nil when no
	// operator counted.
	Counters Counters

	Duration time.Duration
	// MapOnly marks a shuffle-free job (Job.ShuffleFree).
	MapOnly bool
	// Sunk marks a job whose main output went to its Job.Sink (the caller)
	// and not to the DFS, so ReduceOutputBytes leaves it out.
	Sunk   bool
	Failed bool
	Err    string
}

// WorkflowMetrics aggregates the jobs of one workflow run.
type WorkflowMetrics struct {
	Jobs []JobMetrics

	// Cycles is the number of MR cycles (jobs) executed, the paper's
	// workflow-length metric.
	Cycles int
	// FullScans counts jobs×inputs that scanned the main triple relation;
	// engines set this via CountScansOf.
	FullScans int

	Duration  time.Duration
	Failed    bool
	FailedJob string
	Err       string
}

// TotalMapOutputBytes sums shuffle bytes across jobs.
func (w *WorkflowMetrics) TotalMapOutputBytes() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.MapOutputBytes
	}
	return t
}

// TotalCounters sums the jobs' operator counters; the result is never nil.
func (w *WorkflowMetrics) TotalCounters() Counters {
	t := Counters{}
	for _, j := range w.Jobs {
		t.Add(j.Counters)
	}
	return t
}

// TotalReduceOutputBytes sums DFS-write bytes across jobs (logical).
func (w *WorkflowMetrics) TotalReduceOutputBytes() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.ReduceOutputBytes
	}
	return t
}

// TotalMapInputBytes sums DFS-read bytes across jobs.
func (w *WorkflowMetrics) TotalMapInputBytes() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.MapInputBytes
	}
	return t
}

// TotalSpilledBytes sums local-disk spill bytes across jobs.
func (w *WorkflowMetrics) TotalSpilledBytes() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.SpilledBytes
	}
	return t
}

// TotalSpilledRecords sums spilled records across jobs.
func (w *WorkflowMetrics) TotalSpilledRecords() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.SpilledRecords
	}
	return t
}

// TotalMergePasses sums external merge passes across jobs.
func (w *WorkflowMetrics) TotalMergePasses() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.MergePasses
	}
	return t
}

// TotalTaskRetries sums task attempts beyond the first across jobs.
func (w *WorkflowMetrics) TotalTaskRetries() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.TaskRetries
	}
	return t
}

// TotalSpeculativeLaunched sums speculative backup attempts across jobs.
func (w *WorkflowMetrics) TotalSpeculativeLaunched() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.SpeculativeLaunched
	}
	return t
}

// TotalSpeculativeWins sums backup attempts that won their race across jobs.
func (w *WorkflowMetrics) TotalSpeculativeWins() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.SpeculativeWins
	}
	return t
}

// TotalKilledAttempts sums attempts killed by a committed rival across jobs.
func (w *WorkflowMetrics) TotalKilledAttempts() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.KilledAttempts
	}
	return t
}

// TotalNodeKills sums injected node deaths across jobs.
func (w *WorkflowMetrics) TotalNodeKills() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.NodeKills
	}
	return t
}

// TotalMapOutputRecoveries sums map tasks re-executed after losing their
// spill runs to a node death, across jobs.
func (w *WorkflowMetrics) TotalMapOutputRecoveries() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.MapOutputRecoveries
	}
	return t
}

// TotalTempBytesReclaimed sums attempt-private bytes reclaimed from failed,
// killed, or race-losing attempts across jobs.
func (w *WorkflowMetrics) TotalTempBytesReclaimed() int64 {
	var t int64
	for _, j := range w.Jobs {
		t += j.TempBytesReclaimed
	}
	return t
}

// MaxStragglerRatio reports the worst task-duration straggler ratio of any
// phase of any job — the workflow's load-balance low point.
func (w *WorkflowMetrics) MaxStragglerRatio() float64 {
	var t float64
	for _, j := range w.Jobs {
		if j.MapTaskStats.StragglerRatio > t {
			t = j.MapTaskStats.StragglerRatio
		}
		if j.ReduceTaskStats.StragglerRatio > t {
			t = j.ReduceTaskStats.StragglerRatio
		}
	}
	return t
}

// MaxReduceKeySkew reports the worst per-reducer key skew of any job.
func (w *WorkflowMetrics) MaxReduceKeySkew() float64 {
	var t float64
	for _, j := range w.Jobs {
		if j.ReduceKeySkew > t {
			t = j.ReduceKeySkew
		}
	}
	return t
}

// MaxReduceByteSkew reports the worst per-reducer input-byte skew of any job.
func (w *WorkflowMetrics) MaxReduceByteSkew() float64 {
	var t float64
	for _, j := range w.Jobs {
		if j.ReduceByteSkew > t {
			t = j.ReduceByteSkew
		}
	}
	return t
}

// MaxPeakSortBufferBytes reports the largest sort buffer any map task of
// any job held — the workflow's per-task memory high-water mark.
func (w *WorkflowMetrics) MaxPeakSortBufferBytes() int64 {
	var t int64
	for _, j := range w.Jobs {
		if j.PeakSortBufferBytes > t {
			t = j.PeakSortBufferBytes
		}
	}
	return t
}
