// Command ntga-serve is the resident query daemon: it loads an N-Triples
// dataset into the simulated DFS once, builds the statistics catalog, and
// serves concurrent SPARQL queries over HTTP, with a cluster-wide
// weighted-fair slot pool, admission control, and plan/result caches.
//
// With -workers the daemon is also the cluster master: it serves the worker
// RPC on that address, ntga-worker processes register there, and every
// query's jobs run on them. The daemon keeps one copy of the dataset either
// way; planning, caching, ingest, compaction and rendering stay in it.
//
// Usage:
//
//	ntga-serve -data data.nt -addr 127.0.0.1:7457
//	ntga-serve -data data.nt -addr 127.0.0.1:7457 -workers 127.0.0.1:7455
//	curl -s localhost:7457/healthz
//	curl -s -X POST localhost:7457/query -d '{"query":"SELECT * WHERE { ?s ?p ?o . }"}'
//
// See also `ntga-run -server <addr>` for a CLI client.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"ntga/internal/cluster"
	"ntga/internal/rdf"
	"ntga/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	dataFile, addr, workers string
	cfg                     server.Config
	adaptive                time.Duration
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned. It
// returns only on an error, since a daemon that started serves until it is
// killed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	c := &o.cfg
	fs.StringVar(&o.dataFile, "data", "", "N-Triples input file (required)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7457", "HTTP listen address")
	fs.IntVar(&c.Nodes, "nodes", 8, "simulated cluster size")
	fs.IntVar(&c.Replication, "replication", 1, "DFS replication factor")
	fs.IntVar(&c.MapSlots, "map-slots", 8, "cluster-wide map task slots shared by all in-flight queries")
	fs.IntVar(&c.ReduceSlots, "reduce-slots", 8, "cluster-wide reduce task slots shared by all in-flight queries")
	fs.IntVar(&c.MaxInflight, "max-inflight", 4, "queries executing concurrently; more wait in the admission queue")
	fs.IntVar(&c.MaxQueue, "max-queue", 16, "admission queue depth; beyond it requests are shed with HTTP 429")
	fs.IntVar(&c.ResultCacheEntries, "result-cache", 256, "LRU result cache entries (negative disables)")
	fs.DurationVar(&c.DefaultTimeout, "timeout", 60*time.Second, "default per-query deadline")
	fs.StringVar(&c.DefaultEngine, "engine", "ntga-lazy", "default engine for requests that name none (auto = catalog advisor)")
	fs.IntVar(&c.Reducers, "reducers", 8, "default reduce partition count per job")
	fs.Int64Var(&c.SortBufferBytes, "sortbuf", 0, "map sort-buffer budget in bytes (0 = unbounded)")
	fs.IntVar(&c.SplitRecords, "split-records", 0, "records per map split (0 = default 8192)")
	fs.StringVar(&o.workers, "workers", "", "distributed mode: host the cluster master in this process and serve its worker RPC on this address; queries run on the ntga-worker processes that register there")
	fs.DurationVar(&o.adaptive, "adaptive-target", 0, "enable p95-adaptive admission steering the queue-wait p95 to this target (0 = fixed max-inflight+max-queue window)")
	fs.IntVar(&c.CompactAfter, "compact-after", 0, "auto-run delta-merge compaction when an ingest leaves this many uncompacted delta blocks (0 = compact only on POST /compact)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := serve(stderr, &o); err != nil {
		fmt.Fprintln(stderr, "ntga-serve:", err)
		return 1
	}
	return 0
}

// serve loads the dataset, stands up the master when -workers asks for one
// and the server over it, and serves HTTP until the listener fails.
func serve(stderr io.Writer, o *options) error {
	if o.dataFile == "" {
		return fmt.Errorf("-data is required")
	}
	f, err := os.Open(o.dataFile)
	if err != nil {
		return err
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", o.dataFile, err)
	}

	cfg := o.cfg
	if o.adaptive > 0 {
		cfg.Admission = &server.AdmissionConfig{TargetQueueWait: o.adaptive}
	}
	mode := "local"
	if o.workers != "" {
		m, err := cluster.NewMaster(cluster.MasterConfig{
			Nodes:        cfg.Nodes,
			Replication:  cfg.Replication,
			Reducers:     cfg.Reducers,
			SplitRecords: cfg.SplitRecords,
		}, g)
		if err != nil {
			return err
		}
		defer m.Close()
		if err := m.Serve(o.workers); err != nil {
			return fmt.Errorf("serving the worker RPC: %w", err)
		}
		cfg.Master = m
		mode = "distributed, workers register at " + m.Addr()
	}
	srv, err := server.New(cfg, g)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ntga-serve: %d triples loaded, listening on http://%s (%s, slots map=%d reduce=%d, inflight=%d queue=%d)\n",
		srv.Snapshot().Triples, ln.Addr(), mode, cfg.MapSlots, cfg.ReduceSlots, cfg.MaxInflight, cfg.MaxQueue)
	return http.Serve(ln, srv.Handler())
}
