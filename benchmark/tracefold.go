package main

import (
	"sort"
	"strings"
	"time"
)

// phaseKinds are the span kinds the MapReduce engine records inside a task,
// plus the job-level commit: the time the span tree attributes to a named
// step. Everything else inside a request is glue the trace does not name.
var phaseKinds = []string{"scan", "map", "sort", "spill", "merge", "reduce", "write", "commit"}

func isPhase(kind string) bool {
	for _, k := range phaseKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// traceFold is the span tree of a traced section, folded per layer.
type traceFold struct {
	queries   int
	wall      time.Duration            // Σ harness query spans
	phase     map[string]time.Duration // Σ span durations per phase kind, across parallel tasks
	jobSelf   time.Duration            // Σ job span − the part its tasks and commit cover
	flowSelf  time.Duration            // Σ workflow span − the part its jobs cover
	taskSelf  time.Duration            // Σ task span − its phases
	workflows time.Duration            // Σ engine root spans under a query
	covered   time.Duration            // Σ per engine root: time during which some phase was running
}

type interval struct{ start, end time.Time }

// unionLength is the total time covered by at least one interval.
func unionLength(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		if i == 0 || iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

func (s *span) duration() time.Duration { return s.end.Sub(s.start) }

// selfTime is a span's duration minus the part of it its children cover.
func (s *span) selfTime() time.Duration {
	ivs := make([]interval, len(s.children))
	for i, c := range s.children {
		ivs[i] = interval{c.start, c.end}
	}
	return s.duration() - unionLength(ivs)
}

func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		c.walk(fn)
	}
}

// foldSpans attributes the engine's span trees to the harness's query spans.
// An engine root (a workflow, or a job run on its own) belongs to a query
// when a query span contains it; with concurrent clients that does not say
// which query, and the fold does not need to know: it reports sums.
func foldSpans(roots []*span) traceFold {
	f := traceFold{phase: make(map[string]time.Duration)}
	var queries []*span
	for _, r := range roots {
		if r.kind == harnessKind && strings.HasPrefix(r.name, "query ") {
			queries = append(queries, r)
			f.queries++
			f.wall += r.duration()
		}
	}
	inQuery := func(r *span) bool {
		for _, q := range queries {
			if !r.start.Before(q.start) && !r.end.After(q.end) {
				return true
			}
		}
		return false
	}
	for _, r := range roots {
		if r.kind == harnessKind || !inQuery(r) {
			continue
		}
		f.workflows += r.duration()
		var phases []interval
		r.walk(func(s *span) {
			switch {
			case isPhase(s.kind):
				f.phase[s.kind] += s.duration()
				phases = append(phases, interval{s.start, s.end})
			case s.kind == "job":
				f.jobSelf += s.selfTime()
			case s.kind == "workflow":
				f.flowSelf += s.selfTime()
			case s.kind == "task":
				f.taskSelf += s.selfTime()
			}
		})
		f.covered += unionLength(phases)
	}
	return f
}

// unattributedShare is the part of the requests' wall clock during which no
// named phase was running.
func (f traceFold) unattributedShare() float64 {
	if f.wall <= 0 {
		return 0
	}
	return 1 - float64(f.covered)/float64(f.wall)
}

// perQueryMS divides a summed duration by the traced query count.
func (f traceFold) perQueryMS(d time.Duration) float64 {
	if f.queries == 0 {
		return 0
	}
	return ms(d) / float64(f.queries)
}
