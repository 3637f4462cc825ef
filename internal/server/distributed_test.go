package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ntga/internal/cluster"
	"ntga/internal/enginetest"
	"ntga/internal/rdf"
)

// startServerCluster builds a master over g serving its worker RPC on
// loopback, registers two workers with it, and stands up a server hosting
// that master under cfg.
func startServerCluster(t *testing.T, g *rdf.Graph, cfg Config) (*Server, *cluster.Master, []*cluster.Worker) {
	t.Helper()
	m, err := cluster.NewMaster(cluster.MasterConfig{
		Reducers:         4,
		HeartbeatTimeout: 400 * time.Millisecond,
		HeartbeatEvery:   50 * time.Millisecond,
		LeaseEvery:       2 * time.Millisecond,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	var workers []*cluster.Worker
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{MapSlots: 2, ReduceSlots: 2}, nil, m.Addr())
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		workers = append(workers, w)
	}
	cfg.Master = m
	s, err := New(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, m, workers
}

// jobShapes is a response's per-job breakdown without the wall clock, the
// one field two runs of the same plan need not share.
func jobShapes(jobs []JobSummary) []JobSummary {
	out := make([]JobSummary, len(jobs))
	for i, j := range jobs {
		j.DurationMS = 0
		out[i] = j
	}
	return out
}

func TestDistributedServeParity(t *testing.T) {
	g := enginetest.BioGraph()
	local := newTestServer(t, Config{Reducers: 4})
	dist, m, workers := startServerCluster(t, g, Config{Reducers: 4})

	// One dataset per deployment: the server holds no DFS of its own, so the
	// deployment stores exactly what a local-mode server does.
	if dist.dfs != m.DFS() {
		t.Error("distributed server built a DFS of its own")
	}
	if got, want := m.DFS().Used(), local.dfs.Used(); got != want {
		t.Errorf("deployment DFS bytes in use = %d, local-mode server = %d", got, want)
	}

	ctx := context.Background()
	req := Request{Query: twoStarQuery, Engine: "ntga-lazy", Metrics: true}
	lresp, err := local.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := dist.Evaluate(ctx, req)
	if err != nil {
		t.Fatalf("distributed evaluate: %v", err)
	}
	if dresp.Cache != "miss" {
		t.Errorf("first distributed evaluate cache = %q, want miss", dresp.Cache)
	}
	if !reflect.DeepEqual(lresp.Header, dresp.Header) || !reflect.DeepEqual(lresp.Rows, dresp.Rows) {
		t.Errorf("distributed rows diverge from local:\nlocal  %v %v\ndist   %v %v",
			lresp.Header, lresp.Rows, dresp.Header, dresp.Rows)
	}
	if lresp.TotalRows != dresp.TotalRows || lresp.Cycles != dresp.Cycles {
		t.Errorf("totals: local rows=%d cycles=%d, dist rows=%d cycles=%d",
			lresp.TotalRows, lresp.Cycles, dresp.TotalRows, dresp.Cycles)
	}
	if got, want := jobShapes(dresp.Jobs), jobShapes(lresp.Jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("distributed jobs diverge from local:\nlocal %+v\ndist  %+v", want, got)
	}

	// The reply populated the result cache: the second hit must not touch
	// the fleet at all.
	before := dist.Snapshot().Cluster.TasksDispatched
	again, err := dist.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != "hit" {
		t.Errorf("second distributed evaluate cache = %q, want hit", again.Cache)
	}
	if after := dist.Snapshot().Cluster.TasksDispatched; after != before {
		t.Errorf("result-cache hit dispatched tasks (%d -> %d)", before, after)
	}

	// The engine's job spans are the lease spans' parents, so a timeline
	// renders the fleet's task attempts, one per dispatched task.
	tl, err := dist.Evaluate(ctx, Request{Query: twoStarQuery, Engine: "ntga-lazy", Timeline: true, NoCache: true})
	if err != nil {
		t.Fatalf("timeline in distributed mode: %v", err)
	}
	if n := strings.Count(tl.Timeline, "-- timeline: job "); n != tl.Cycles || !strings.Contains(tl.Timeline, "map[0]") {
		t.Errorf("distributed timeline has %d job tables for %d cycles, or no lease spans:\n%s", n, tl.Cycles, tl.Timeline)
	}

	// Metrics expose the worker fleet; no attempt temporaries outlive the
	// queries.
	snap := dist.Snapshot()
	cm := snap.Cluster
	if cm.Mode != "distributed" || cm.MasterAddr != m.Addr() || cm.WorkersRegistered != 2 || cm.WorkersAlive != 2 || len(cm.Workers) != 2 {
		t.Errorf("cluster metrics = %+v", cm)
	}
	if snap.TempFiles != 0 {
		t.Errorf("%d temp files remain after distributed queries, want 0", snap.TempFiles)
	}
	if lm := local.Snapshot().Cluster; lm.Mode != "local" || lm.NodesTotal == 0 {
		t.Errorf("local cluster metrics = %+v", lm)
	}

	// Healthz: ok with a full fleet, degraded once a worker dies.
	ts := httptest.NewServer(dist.Handler())
	defer ts.Close()
	hc := NewClient(ts.URL)
	h, err := hc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK || h.Mode != "distributed" || h.WorkersAlive != 2 || h.WorkersRegistered != 2 {
		t.Fatalf("health = %+v", h)
	}
	workers[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, _ = hc.Health(ctx)
		if h != nil && h.Status == HealthDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never degraded after worker kill: %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.WorkersAlive != 1 || h.WorkersRegistered != 2 {
		t.Errorf("degraded health = %+v", h)
	}
	// The surviving worker must still answer queries.
	fresh, err := dist.Evaluate(ctx, Request{Query: twoStarQuery, Engine: "ntga-lazy", NoCache: true})
	if err != nil {
		t.Fatalf("evaluate after worker loss: %v", err)
	}
	if !reflect.DeepEqual(lresp.Rows, fresh.Rows) {
		t.Error("post-loss rows diverge from local")
	}
	if n := dist.Snapshot().TempFiles; n != 0 {
		t.Errorf("%d temp files remain after the post-loss query, want 0", n)
	}
}

// The health body must say what mode the service runs in even in local
// mode (no cluster fields).
func TestLocalHealthzMode(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "local" || h.WorkersRegistered != 0 {
		t.Errorf("local health = %+v", h)
	}
}

// TestWarehouseRegisterSyncDuringServerIngest races server ingests against
// workers registering and syncing with the hosted master. Register and Sync
// read the dictionary and its dataset version from the one warehouse in one
// step, so every reply's (term count, version) pair must be a state the
// warehouse installed: the boot state, or the state after some ingest.
// Each batch mints exactly two fresh terms, so the state after the n-th
// ingest holds base + 2n terms.
func TestWarehouseRegisterSyncDuringServerIngest(t *testing.T) {
	g := enginetest.BioGraph()
	base, boot := g.Dict.Len(), g.Version()
	s, m, _ := startServerCluster(t, g, Config{})
	const batches = 12

	type state struct {
		terms   int
		version string
	}
	var (
		mu       sync.Mutex
		observed []state
	)
	// The ingests start once every client has a reply in hand, so the
	// clients' calls overlap them.
	done := make(chan struct{})
	var wg, ready sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			first := true
			defer func() {
				if first {
					ready.Done()
				}
			}()
			rc, err := rpc.Dial("tcp", m.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer rc.Close()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var st state
				if i%4 == 0 {
					var reply cluster.RegisterReply
					if err := rc.Call("Master.Register", &cluster.RegisterArgs{Addr: "127.0.0.1:1", KnownVersion: boot}, &reply); err != nil {
						t.Error(err)
						return
					}
					st = state{len(reply.Terms), reply.DatasetVersion}
				} else {
					var reply cluster.SyncReply
					if err := rc.Call("Master.Sync", &cluster.SyncArgs{Have: base}, &reply); err != nil {
						t.Error(err)
						return
					}
					st = state{reply.From + len(reply.Terms), reply.DatasetVersion}
				}
				mu.Lock()
				observed = append(observed, st)
				mu.Unlock()
				if first {
					first = false
					ready.Done()
				}
			}
		}()
	}
	ready.Wait()

	installed := map[state]bool{{base, boot}: true}
	var imu sync.Mutex
	var iwg sync.WaitGroup
	for b := 0; b < batches; b++ {
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			batch := fmt.Sprintf("<http://ex/race%d> <http://ex/label> \"race %d\" .\n", b, b)
			res, err := s.Ingest(context.Background(), strings.NewReader(batch))
			if err != nil {
				t.Error(err)
				return
			}
			imu.Lock()
			installed[state{base + 2*res.Seq, res.DatasetVersion}] = true
			imu.Unlock()
		}()
	}
	iwg.Wait()
	close(done)
	wg.Wait()

	if len(installed) != batches+1 {
		t.Fatalf("%d distinct installed states, want %d", len(installed), batches+1)
	}
	for _, st := range observed {
		if !installed[st] {
			t.Fatalf("reply paired %d terms with dataset %s, a state the warehouse never installed", st.terms, st.version)
		}
	}
	if got, want := g.Dict.Len(), base+2*batches; got != want {
		t.Errorf("dictionary holds %d terms after %d batches, want %d", got, batches, want)
	}
}
