// Command ntga-master runs the distributed-mode coordinator: it loads an
// N-Triples file into the master-resident simulated DFS, then serves the
// cluster RPC endpoint that ntga-worker processes register against and
// that ntga-run -cluster submits queries to. (ntga-serve -workers hosts the
// same master inside the query daemon.)
//
// Usage:
//
//	ntga-master -data data.nt -addr 127.0.0.1:7455
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ntga/internal/cluster"
	"ntga/internal/rdf"
)

func main() {
	var (
		dataFile = flag.String("data", "", "N-Triples input file (required)")
		addr     = flag.String("addr", "127.0.0.1:7455", "RPC listen address")
		nodes    = flag.Int("nodes", 8, "simulated DFS node count")
		rep      = flag.Int("replication", 1, "DFS replication factor")
		reducers = flag.Int("reducers", 0, "default reduce partitions per job (0 = engine default)")
		split    = flag.Int("split-records", 0, "default records per map split (0 = engine default)")
		engName  = flag.String("engine", "", "default engine for queries that do not name one")
		partBkts = flag.Int("partition-buckets", 0, "build the hash-of-subject partitioned layout at boot and run queries over it (0 = flat)")
	)
	flag.Parse()

	if *dataFile == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	f, err := os.Open(*dataFile)
	if err != nil {
		fatal(err)
	}
	g, err := rdf.ReadNTriples(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	m, err := cluster.NewMaster(cluster.MasterConfig{
		Nodes:            *nodes,
		Replication:      *rep,
		Reducers:         *reducers,
		SplitRecords:     *split,
		DefaultEngine:    *engName,
		PartitionBuckets: *partBkts,
	}, g)
	if err != nil {
		fatal(err)
	}
	if err := m.Serve(*addr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ntga-master: listening on %s (%d triples, dataset %s)\n",
		m.Addr(), g.Len(), g.Version())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	m.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ntga-master:", err)
	os.Exit(1)
}
