package main

import (
	"fmt"
	"time"
)

// section records one timed run of a workload: every query's latency on the
// caller's clock, the exact counters the engine reported for it, and the
// workload's own operations (ingests, compactions).
type section struct {
	tr *tracer // harness spans around each call when tracing

	all       []float64            // query latencies, ms, in issue order
	byQuery   map[string][]float64 // the same, per query id
	wall      time.Duration        // time inside the timed op sequence
	attempted int                  // queries + ingests + compactions
	failed    int                  // errors + row mismatches
	errs      []string             // first few failure descriptions

	sum            opCounts // per-query counters, summed (maxima for the peaks)
	postWorkflowMS float64  // Σ (caller latency − workflow duration)
	chainDepth     int      // Σ delta-chain depth at query time

	// untimed is what the runtime counted for work done between the timed
	// operations (ingest_mixed's reset to a fresh warehouse).
	untimed memCounters

	ingestMS, compactMS           []float64
	ingestTriples, bucketsRewrite int
	ingestBlockBytes, ingestWrite int64 // delta bytes accepted; DFS bytes written by ingest + compaction
}

func newSection(tr *tracer) *section {
	return &section{tr: tr, byQuery: make(map[string][]float64)}
}

func (s *section) queries() int { return len(s.all) }

func (s *section) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// query times one query call, folds its counters, and checks its row count
// against the verified answer (wantRows < 0 skips the check).
func (s *section) query(id string, wantRows int, fn func() (opResult, error)) (opResult, bool) {
	end := s.tr.begin("query " + id)
	start := time.Now()
	res, err := fn()
	lat := time.Since(start)
	end()
	s.attempted++
	s.wall += lat
	if err != nil {
		s.fail("%s: %v", id, err)
		return res, false
	}
	if wantRows >= 0 && res.rows != wantRows {
		s.fail("%s: %d rows, verified answer has %d", id, res.rows, wantRows)
		return res, false
	}
	s.all = append(s.all, ms(lat))
	s.byQuery[id] = append(s.byQuery[id], ms(lat))
	s.fold(res.counts)
	if res.counts.workflow > 0 {
		s.postWorkflowMS += ms(lat - res.counts.workflow)
	}
	return res, true
}

func (s *section) fold(c opCounts) {
	t := &s.sum
	t.cycles += c.cycles
	t.mapOnlyJobs += c.mapOnlyJobs
	t.tasks += c.tasks
	t.mapInputBytes += c.mapInputBytes
	t.shuffleBytes += c.shuffleBytes
	t.dfsWriteBytes += c.dfsWriteBytes
	t.spilledBytes += c.spilledBytes
	t.mergePasses += c.mergePasses
	t.retries += c.retries
	t.estShuffleBytes += c.estShuffleBytes
	t.straggler += c.straggler
	t.byteSkew += c.byteSkew
	t.workflow += c.workflow
	t.jobs += c.jobs
	t.server += c.server
	if c.peakSortBuffer > t.peakSortBuffer {
		t.peakSortBuffer = c.peakSortBuffer
	}
	if c.peakDFS > t.peakDFS {
		t.peakDFS = c.peakDFS
	}
}

// op times one non-query operation of the op sequence (an ingest or a
// compaction) and returns its duration in ms.
func (s *section) op(name string, fn func() error) (float64, bool) {
	end := s.tr.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	end()
	s.attempted++
	s.wall += d
	if err != nil {
		s.fail("%s: %v", name, err)
		return 0, false
	}
	return ms(d), true
}

// merge folds a concurrent client's section into s. Wall time is not summed:
// concurrent clients share one clock, which the caller sets.
func (s *section) merge(o *section) {
	s.all = append(s.all, o.all...)
	for id, l := range o.byQuery {
		s.byQuery[id] = append(s.byQuery[id], l...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.fold(o.sum)
	s.postWorkflowMS += o.postWorkflowMS
}

// perQuery divides a sum by the number of verified queries.
func (s *section) perQuery(sum float64) float64 {
	if s.queries() == 0 {
		return 0
	}
	return sum / float64(s.queries())
}
