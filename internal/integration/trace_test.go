// Trace-replay acceptance suite: the workload harness drives a seeded
// 1000-request Zipf multi-tenant trace through the resident service with
// 32 concurrent clients, and every successfully answered request must be
// byte-identical to a serial reference execution — on a healthy service
// and on one with the chaos fault injector armed.
package integration

import (
	"context"
	"testing"
	"time"

	"ntga/internal/mapreduce"
	"ntga/internal/server"
	"ntga/internal/workload"
)

// traceWorkloadQueries adapts the serving catalog slice for the generator.
func traceWorkloadQueries(t *testing.T) []workload.Query {
	t.Helper()
	qs := serveQueries(t)
	out := make([]workload.Query, len(qs))
	for i, cq := range qs {
		out[i] = workload.Query{ID: cq.ID, Src: cq.Src}
	}
	return out
}

// traceUnderLoad replays the canonical 1000-request trace (Zipf 1.1, three
// weighted tenants, 30% cache busters) with 32 closed-loop clients against
// the given service config and fails on any response that differs from the
// serial reference.
func traceUnderLoad(t *testing.T, cfg server.Config) *workload.Result {
	t.Helper()
	wqs := traceWorkloadQueries(t)
	tr, err := workload.Generate(workload.Config{
		Seed:     20260808,
		Requests: 1000,
		ZipfS:    1.1,
		Tenants: []workload.TenantSpec{
			{Name: "gold", Weight: 3, Share: 0.5},
			{Name: "silver", Weight: 2, Share: 0.3},
			{Name: "bronze", Weight: 1, Share: 0.2},
		},
		ColdFraction: 0.3,
	}, wqs)
	if err != nil {
		t.Fatal(err)
	}

	s := newServeServer(t, cfg)
	tgt := workload.ServerTarget{S: s}
	// The reference runs on the same (still idle) service, serially and
	// cache-bypassing; the concurrent replay must reproduce it byte for
	// byte whether an answer came from MapReduce or the result cache.
	ref, err := workload.SerialReference(context.Background(), tr, tgt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Replay(context.Background(), tr, tgt, workload.Options{
		Closed:  true,
		Clients: 32,
		Verify:  ref,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Requests != 1000 {
		t.Errorf("replayed %d requests, want 1000", res.Requests)
	}
	if got := res.Outcomes[workload.OutcomeOK]; got != 1000 {
		t.Errorf("ok outcomes = %d, want 1000 (outcomes %v, first errors %v)",
			got, res.Outcomes, res.Errs)
	}
	if res.Diffs != 0 {
		t.Errorf("%d concurrent responses differ from serial reference: %v", res.Diffs, res.DiffDetails)
	}
	return res
}

// TestTraceReplayByteIdentical is the correctness-under-load headline: a
// 1000-request seeded trace through 32 concurrent clients, every OK
// response byte-identical to the serial reference.
func TestTraceReplayByteIdentical(t *testing.T) {
	res := traceUnderLoad(t, server.Config{
		MaxInflight: 16,
		MaxQueue:    2048,
	})
	// The mix must have exercised both paths: cold requests executed real
	// cycles, hot requests hit the cache.
	for _, tenant := range []string{"gold", "silver", "bronze"} {
		if res.PerTenant[tenant] == nil || res.PerTenant[tenant].Outcomes[workload.OutcomeOK] == 0 {
			t.Errorf("tenant %s answered no requests", tenant)
		}
	}
}

// TestTraceReplayWithChaos reruns the same trace with mid-phase fault
// injection armed on every served workflow: attempts die holding partial
// state and are retried, yet all 1000 concurrent answers must still match
// the serial reference byte for byte.
func TestTraceReplayWithChaos(t *testing.T) {
	traceUnderLoad(t, server.Config{
		MaxInflight:     16,
		MaxQueue:        2048,
		SortBufferBytes: 1 << 10, // force spills so faults hit partial state
		TaskMaxAttempts: 12,
		Faults: &mapreduce.FaultPlan{
			Rate: 0.01,
			Seed: 20260808,
		},
	})
}

// TestTraceReplayAdaptiveAdmissionParity replays the trace against the
// p95-adaptive admission controller (generous target, so nothing sheds)
// and requires the exact same byte-identity guarantee: the adaptive window
// changes when requests are refused, never what an admitted request
// answers.
func TestTraceReplayAdaptiveAdmissionParity(t *testing.T) {
	traceUnderLoad(t, server.Config{
		MaxInflight: 16,
		MaxQueue:    2048,
		Admission: &server.AdmissionConfig{
			TargetQueueWait: 10 * time.Second, // far above any real queue wait here
		},
	})
}

// TestTraceReplayQueueWaitMetrics drives a narrow service with the trace
// and asserts the per-tenant queue-wait rollup in /metrics is populated
// for every tenant in the mix.
func TestTraceReplayQueueWaitMetrics(t *testing.T) {
	wqs := traceWorkloadQueries(t)
	tr, err := workload.Generate(workload.Config{
		Seed:     7,
		Requests: 64,
		Tenants: []workload.TenantSpec{
			{Name: "gold", Weight: 2, Share: 0.5},
			{Name: "bronze", Weight: 1, Share: 0.5},
		},
		ColdFraction: 1, // every request must queue for an execution token
	}, wqs)
	if err != nil {
		t.Fatal(err)
	}
	s := newServeServer(t, server.Config{MaxInflight: 2, MaxQueue: 256})
	res, err := workload.Replay(context.Background(), tr, workload.ServerTarget{S: s},
		workload.Options{Closed: true, Clients: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outcomes[workload.OutcomeOK]; got != 64 {
		t.Fatalf("ok = %d, want 64 (outcomes %v, errs %v)", got, res.Outcomes, res.Errs)
	}
	qw := s.Snapshot().QueueWait
	for _, tenant := range []string{"gold", "bronze"} {
		st, ok := qw[tenant]
		if !ok || st.Count == 0 {
			t.Errorf("queue-wait metrics missing tenant %q (have %v)", tenant, qw)
		}
	}
}
