// Package trace records the execution timeline of MapReduce workflows as a
// tree of typed spans: a workflow span contains job spans, a job span
// contains task spans (one per map/reduce task attempt) plus a commit span,
// and each task span contains phase spans (scan, map, sort, spill, merge
// pass, reduce, DFS write) with wall-clock intervals and record/byte
// counts.
//
// The package is designed around two constraints of the engine it
// instruments:
//
//   - Zero overhead when disabled. Every method is safe on a nil *Tracer or
//     nil *Span and does nothing, so the engine calls the API
//     unconditionally; with no tracer configured the calls reduce to a nil
//     check.
//   - Deterministic trees under concurrency. Tasks run on a goroutine pool,
//     so spans are appended to their parent in a nondeterministic order;
//     every span carries an engine-assigned ordering group and Roots()
//     sorts siblings by (group, task, attempt) before returning the tree.
//     Two runs of the same seeded workload therefore produce identical
//     trees up to timestamps (see TreeString).
//
// Phases inside one task are recorded as *accumulated* durations (AddPhase)
// rather than live sub-spans: the engine's scan/map and reduce/write loops
// are fused — one streaming pass interleaves the phases record by record —
// so the per-phase time is summed across the loop and laid out sequentially
// inside the task span when it ends. This keeps intervals properly nested
// for Chrome trace_event export while still reporting where the task's time
// went.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a span.
type Kind string

// Span kinds, mirroring the lifecycle of a Hadoop-style MR workflow.
const (
	KindWorkflow Kind = "workflow"
	KindJob      Kind = "job"
	KindTask     Kind = "task"
	KindScan     Kind = "scan"   // reading input records from the DFS
	KindMap      Kind = "map"    // user map function
	KindSort     Kind = "sort"   // sorting (and combining) the final in-memory segment
	KindSpill    Kind = "spill"  // sorting + writing one run to node-local disk
	KindMerge    Kind = "merge"  // one external merge pass over spilled runs
	KindReduce   Kind = "reduce" // merge-group iteration + user reduce function
	KindWrite    Kind = "write"  // streaming output records into the DFS
	KindCommit   Kind = "commit" // splicing part files into the job outputs
	KindRender   Kind = "render" // a query's rows rendered as a term table, after its workflow
)

// Span is one node of the execution tree. Exported fields are read-only
// once the span has ended; a Span must only be mutated by the goroutine
// that started it.
type Span struct {
	Kind Kind
	Name string
	// Task is the task index within the job (-1 for non-task spans).
	Task int
	// Node is the simulated data node the task ran on (-1 when not
	// task-scoped).
	Node int
	// Attempt is the task attempt number (0 = first attempt).
	Attempt int
	// Group orders siblings deterministically (engine-assigned; creation
	// order is nondeterministic under the task goroutine pool).
	Group int

	Start, End time.Time
	// Records and Bytes describe the span's dominant data flow (input
	// records scanned, bytes spilled, output bytes written, ... — see the
	// engine's instrumentation for the per-kind meaning).
	Records int64
	Bytes   int64

	tracer   *Tracer
	children []*Span
	phases   []phase
}

// phase is one accumulated in-task phase, materialized as a child span
// when the task span ends.
type phase struct {
	kind    Kind
	name    string
	dur     time.Duration
	records int64
	bytes   int64
}

// Tracer collects span trees. The zero value is not usable; construct with
// New. A nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	roots []*Span
}

// New returns an empty tracer whose epoch (the zero timestamp of exported
// traces) is the moment of creation.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Epoch returns the tracer's zero timestamp.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Start opens a root span. Returns nil when the tracer is nil.
func (t *Tracer) Start(kind Kind, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Kind: kind, Name: name, Task: -1, Node: -1, Start: time.Now(), tracer: t}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Child opens a sub-span with an explicit ordering group. Safe on a nil
// receiver (returns nil).
func (s *Span) Child(kind Kind, name string, group int) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Kind: kind, Name: name, Task: -1, Node: -1, Group: group,
		Start: time.Now(), tracer: s.tracer}
	s.tracer.mu.Lock()
	s.children = append(s.children, c)
	s.tracer.mu.Unlock()
	return c
}

// ChildTask opens a task sub-span carrying task index, simulated node, and
// attempt number. The ordering group must be unique per task within the
// parent (attempts of one task share it and stay in creation order).
func (s *Span) ChildTask(name string, group, task, node, attempt int) *Span {
	c := s.Child(KindTask, name, group)
	if c == nil {
		return nil
	}
	c.Task = task
	c.Node = node
	c.Attempt = attempt
	return c
}

// AddPhase accumulates one in-task phase. Phases are laid out sequentially
// inside the span's interval when End is called, in AddPhase order. Safe on
// a nil receiver.
func (s *Span) AddPhase(kind Kind, name string, d time.Duration, records, bytes int64) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.phases = append(s.phases, phase{kind: kind, name: name, dur: d, records: records, bytes: bytes})
}

// SetIO records the span's record/byte counts. Safe on a nil receiver.
func (s *Span) SetIO(records, bytes int64) {
	if s == nil {
		return
	}
	s.Records = records
	s.Bytes = bytes
}

// Finish closes the span, stamping its end time and materializing
// accumulated phases as sequential child spans clamped to the span's
// interval. Safe on a nil receiver.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.materializePhases()
}

func (s *Span) materializePhases() {
	if len(s.phases) == 0 {
		return
	}
	cursor := s.Start
	for _, p := range s.phases {
		start := cursor
		end := start.Add(p.dur)
		if end.After(s.End) {
			end = s.End // clamp: measurement jitter must not break nesting
			if start.After(end) {
				start = end
			}
		}
		c := &Span{Kind: p.kind, Name: p.name, Task: s.Task, Node: s.Node,
			Group: len(s.children), Start: start, End: end,
			Records: p.records, Bytes: p.bytes, tracer: s.tracer}
		s.children = append(s.children, c)
		cursor = end
	}
	s.phases = nil
}

// Roots returns the tracer's span trees with every sibling list sorted
// deterministically by (Group, Task, Attempt), creation order breaking
// ties. Call after the traced run has completed; the returned spans are the
// tracer's own (not copies).
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.roots {
		r.sortTree()
	}
	return t.roots
}

func (s *Span) sortTree() {
	sort.SliceStable(s.children, func(i, j int) bool {
		a, b := s.children[i], s.children[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Attempt < b.Attempt
	})
	for _, c := range s.children {
		c.sortTree()
	}
}

// Children returns the span's sub-spans (sorted if obtained via Roots).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Duration is the span's wall-clock extent.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Walk visits the span and its descendants depth-first, pre-order.
func (s *Span) Walk(fn func(*Span, int)) {
	if s == nil {
		return
	}
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(*Span, int), depth int) {
	fn(s, depth)
	for _, c := range s.children {
		c.walk(fn, depth+1)
	}
}

// TreeString renders span trees as indented text with every
// timing-independent attribute (kind, name, task, node, attempt, records,
// bytes) and no timestamps — the canonical form the determinism tests
// compare across runs.
func TreeString(roots []*Span) string {
	var sb strings.Builder
	for _, r := range roots {
		r.Walk(func(s *Span, depth int) {
			sb.WriteString(strings.Repeat("  ", depth))
			fmt.Fprintf(&sb, "%s %q", s.Kind, s.Name)
			if s.Task >= 0 {
				fmt.Fprintf(&sb, " task=%d node=%d attempt=%d", s.Task, s.Node, s.Attempt)
			}
			if s.Records != 0 || s.Bytes != 0 {
				fmt.Fprintf(&sb, " records=%d bytes=%d", s.Records, s.Bytes)
			}
			sb.WriteByte('\n')
		})
	}
	return sb.String()
}
