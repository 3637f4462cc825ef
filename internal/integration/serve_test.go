// Serving acceptance suite: the resident query service must keep its
// guarantees under real concurrency — byte-identical answers vs. serial
// execution (with and without chaos faults), a cluster-wide slot pool that
// in-flight tasks never exceed (proved from trace spans), bounded
// admission that sheds with ErrOverloaded instead of queueing without
// limit, result-cache hits that bypass MapReduce entirely, and cancelled
// queries that leak neither goroutines nor temp bytes.
package integration

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ntga/internal/bench"
	"ntga/internal/mapreduce"
	"ntga/internal/server"
	"ntga/internal/trace"
)

// serveQueryIDs is the benchmark-catalog slice the serving tests multiplex:
// a mix of bound-only stars, unbound-property joins, and the 3-star
// optimizer query, all on the BSBM-flavoured dataset.
var serveQueryIDs = []string{"Q1a", "Q2a", "Q3a", "B0", "B1", "B2", "B5", "B7"}

func serveQueries(t *testing.T) []bench.CatalogQuery {
	t.Helper()
	qs, err := bench.Series(serveQueryIDs...)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func newServeServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	g, err := bench.Dataset("bsbm", 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// renderResponse flattens a response to one comparable string.
func renderResponse(r *server.Response) string {
	if r.IsCount {
		return fmt.Sprintf("count:%d", r.Count)
	}
	return strings.Join(r.Header, "\t") + "\n" + strings.Join(r.Rows, "\n")
}

// serialAnswers evaluates every query one at a time on its own fresh
// service and returns the rendered rows keyed by query ID.
func serialAnswers(t *testing.T, cfg server.Config, qs []bench.CatalogQuery) map[string]string {
	t.Helper()
	s := newServeServer(t, cfg)
	out := make(map[string]string, len(qs))
	for _, cq := range qs {
		r, err := s.Evaluate(context.Background(), server.Request{Query: cq.Src, NoCache: true})
		if err != nil {
			t.Fatalf("serial %s: %v", cq.ID, err)
		}
		out[cq.ID] = renderResponse(r)
	}
	return out
}

// taskIntervals collects every task span's [start, end] interval from the
// trace forest, split by task kind ("map" / "reduce").
func taskIntervals(roots []*trace.Span) map[string][][2]time.Time {
	out := map[string][][2]time.Time{}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		if s.Kind == trace.KindTask {
			out[s.Name] = append(out[s.Name], [2]time.Time{s.Start, s.End})
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// maxOverlap sweeps the intervals and returns the peak number in flight at
// any instant. Ends sort before starts at equal timestamps: a slot released
// and re-granted in the same nanosecond is sequential, not concurrent.
func maxOverlap(intervals [][2]time.Time) int {
	type event struct {
		at    time.Time
		delta int
	}
	events := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		events = append(events, event{iv[0], +1}, event{iv[1], -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].at.Equal(events[j].at) {
			return events[i].at.Before(events[j].at)
		}
		return events[i].delta < events[j].delta
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// TestServeConcurrentByteIdentical is the headline acceptance run: 16
// concurrent clients multiplex the catalog queries over one resident
// service and every answer must match its serial run byte for byte, while
// the shared slot pool's capacity is never exceeded (checked both from the
// pool's own accounting and independently from the task spans of a shared
// tracer), and a repeat query is served from the result cache with zero MR
// cycles.
func TestServeConcurrentByteIdentical(t *testing.T) {
	qs := serveQueries(t)
	want := serialAnswers(t, server.Config{}, qs)

	const mapSlots, reduceSlots, clients = 4, 4, 16
	tr := trace.New()
	s := newServeServer(t, server.Config{
		MapSlots:    mapSlots,
		ReduceSlots: reduceSlots,
		MaxInflight: clients,
		MaxQueue:    4 * clients,
		Tracer:      tr,
	})

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client walks the whole catalog, starting at its own
			// offset so distinct queries overlap in time.
			for i := range qs {
				cq := qs[(c+i)%len(qs)]
				r, err := s.Evaluate(context.Background(), server.Request{
					Query:   cq.Src,
					NoCache: true, // force real execution on every call
					Tenant:  fmt.Sprintf("tenant-%d", c%3),
					Weight:  1 + c%2,
				})
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", cq.ID, err)
					return
				}
				if got := renderResponse(r); got != want[cq.ID] {
					errs[c] = fmt.Errorf("%s: concurrent rows differ from serial run", cq.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}

	// Slot pool never exceeded — once from the pool's own high-water mark…
	m := s.Snapshot()
	if got := m.Slots["map"].Peak; got > mapSlots {
		t.Errorf("pool map peak = %d, cap %d", got, mapSlots)
	}
	if got := m.Slots["reduce"].Peak; got > reduceSlots {
		t.Errorf("pool reduce peak = %d, cap %d", got, reduceSlots)
	}
	// …and once independently, from the task spans every workflow recorded.
	byKind := taskIntervals(tr.Roots())
	if len(byKind["map"]) == 0 || len(byKind["reduce"]) == 0 {
		t.Fatalf("tracer recorded %d map / %d reduce task spans, want both non-zero",
			len(byKind["map"]), len(byKind["reduce"]))
	}
	if got := maxOverlap(byKind["map"]); got > mapSlots {
		t.Errorf("trace spans show %d concurrent map tasks, slot cap %d", got, mapSlots)
	}
	if got := maxOverlap(byKind["reduce"]); got > reduceSlots {
		t.Errorf("trace spans show %d concurrent reduce tasks, slot cap %d", got, reduceSlots)
	}

	// The NoCache runs still populated the result cache: a plain repeat of
	// every query must now be a hit that runs zero MR cycles.
	cyclesBefore := s.Snapshot().MRCycles
	for _, cq := range qs {
		r, err := s.Evaluate(context.Background(), server.Request{Query: cq.Src})
		if err != nil {
			t.Fatalf("cached repeat %s: %v", cq.ID, err)
		}
		if r.Cache != "hit" || r.Cycles != 0 {
			t.Errorf("repeat %s: cache=%s cycles=%d, want hit with 0 cycles", cq.ID, r.Cache, r.Cycles)
		}
		if got := renderResponse(r); got != want[cq.ID] {
			t.Errorf("repeat %s: cached rows differ from serial run", cq.ID)
		}
	}
	if after := s.Snapshot().MRCycles; after != cyclesBefore {
		t.Errorf("cached repeats executed %d MR cycles, want 0", after-cyclesBefore)
	}
}

// TestServeConcurrentWithChaos reruns the concurrent sweep with the fault
// injector armed on every served workflow: attempts die mid-phase and are
// retried, yet every concurrent answer must still match the fault-free
// serial baseline.
func TestServeConcurrentWithChaos(t *testing.T) {
	qs := serveQueries(t)
	want := serialAnswers(t, server.Config{}, qs)

	s := newServeServer(t, server.Config{
		MapSlots:        6,
		ReduceSlots:     6,
		MaxInflight:     8,
		MaxQueue:        64,
		SortBufferBytes: 1 << 10, // force spills so faults hit partial state
		TaskMaxAttempts: 12,
		Faults: &mapreduce.FaultPlan{ // mid-phase kills holding partial state
			Rate: 0.01,
			Seed: 20260806,
		},
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	retries := make([]int64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range qs {
				cq := qs[(c+i)%len(qs)]
				r, err := s.Evaluate(context.Background(), server.Request{Query: cq.Src, NoCache: true})
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", cq.ID, err)
					return
				}
				retries[c] += r.TaskRetries
				if got := renderResponse(r); got != want[cq.ID] {
					errs[c] = fmt.Errorf("%s: chaos rows differ from fault-free serial run", cq.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var totalRetries int64
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
		totalRetries += retries[c]
	}
	if totalRetries == 0 {
		t.Error("chaos run recorded zero task retries — fault injection never fired")
	}
	if m := s.Snapshot(); m.TempBytesReclaimed == 0 {
		t.Error("TempBytesReclaimed = 0 under chaos, want failed attempts' bytes accounted")
	}
}

// TestServeOverloadSheds floods a deliberately tiny admission window and
// requires the overflow to be refused with ErrOverloaded — immediately,
// not after waiting — while admitted queries still succeed.
func TestServeOverloadSheds(t *testing.T) {
	qs := serveQueries(t)
	s := newServeServer(t, server.Config{MaxInflight: 1, MaxQueue: 1})

	const clients = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var succeeded, shed int
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			_, err := s.Evaluate(context.Background(), server.Request{Query: qs[c%len(qs)].Src, NoCache: true})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				succeeded++
			case errors.Is(err, server.ErrOverloaded):
				shed++
			default:
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if succeeded == 0 {
		t.Error("no query survived admission")
	}
	if shed == 0 {
		t.Error("no query was shed by a window of 2 under 16 simultaneous clients")
	}
	if succeeded+shed != clients {
		t.Errorf("succeeded %d + shed %d != %d clients", succeeded, shed, clients)
	}
	if m := s.Snapshot(); m.Shed != int64(shed) {
		t.Errorf("metrics shed = %d, counted %d", m.Shed, shed)
	}
}

// TestServeCancellationLeaksNothing cancels a fleet of mid-flight queries
// via per-request deadlines and requires: the failures are deadline errors,
// swept attempt temporaries are accounted, zero temp files remain on the
// DFS, the goroutine count returns to baseline, and the service keeps
// serving afterwards.
func TestServeCancellationLeaksNothing(t *testing.T) {
	qs := serveQueries(t)
	// Slots exceed the client count so every query's tasks actually start
	// (a deadline that fires while a task is still queued for a slot is a
	// valid cancellation, but holds no partial state to sweep); the tiny
	// sort buffer guarantees running attempts hold spilled state.
	s := newServeServer(t, server.Config{
		MapSlots:        32,
		ReduceSlots:     32,
		MaxInflight:     16,
		MaxQueue:        64,
		SortBufferBytes: 1 << 10,
	})

	// Measure one full run to aim the deadlines at the middle of execution.
	warm := time.Now()
	if _, err := s.Evaluate(context.Background(), server.Request{Query: qs[len(qs)-1].Src, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	warmMS := time.Since(warm).Milliseconds()

	baseline := runtime.NumGoroutine()
	const clients = 16
	var timedOut int
	// Deadlines laddered across (0, warmMS]: some land mid-execution and
	// sweep partial state. Retry with the survivors' budget halved until a
	// round both cancels mid-flight and accounts reclaimed bytes (bounded —
	// timer jitter means no single round is guaranteed to catch state).
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				timeoutMS := warmMS * int64(c%4+1) / (4 << round)
				if timeoutMS < 1 {
					timeoutMS = 1
				}
				_, err := s.Evaluate(context.Background(), server.Request{
					Query:     qs[c%len(qs)].Src,
					NoCache:   true,
					TimeoutMS: timeoutMS,
				})
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("client %d: %v, want deadline or success", c, err)
						return
					}
					mu.Lock()
					timedOut++
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if timedOut > 0 && s.Snapshot().TempBytesReclaimed > 0 {
			break
		}
	}

	if timedOut == 0 {
		t.Error("no client was cancelled mid-flight across every deadline ladder round")
	}
	m := s.Snapshot()
	if m.TempFiles != 0 {
		t.Errorf("%d temp files remain after cancellations, want 0", m.TempFiles)
	}
	if m.TempBytesReclaimed == 0 {
		t.Error("TempBytesReclaimed = 0 after mid-flight cancellations, want swept attempt bytes accounted")
	}

	// Goroutines wound down: slot waiters, task attempts, and admission
	// holders of the cancelled queries must all exit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	r, err := s.Evaluate(context.Background(), server.Request{Query: qs[0].Src})
	if err != nil || r.TotalRows == 0 {
		t.Fatalf("post-cancellation Evaluate = (%v, %v), want working service", r, err)
	}
}
