// Command ntga-worker runs one distributed-mode worker: it registers with
// an ntga-master, rebuilds query plans from the specs the master leases to
// it, executes map/reduce task attempts, and serves its committed map
// output to peer workers over the same RPC transport.
//
// Usage:
//
//	ntga-worker -master 127.0.0.1:7455
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntga/internal/cluster"
)

func main() {
	var (
		master    = flag.String("master", "", "master RPC address (required)")
		addr      = flag.String("addr", "127.0.0.1:0", "this worker's shuffle-serving listen address")
		mapSlots  = flag.Int("map-slots", 2, "concurrent map tasks")
		redSlots  = flag.Int("reduce-slots", 2, "concurrent reduce tasks")
		taskDelay = flag.Duration("task-delay", 0, "artificial per-task delay (smoke tests: stretch jobs so failures land mid-run)")

		// Seeded network chaos on this worker's outbound edges (master RPC
		// and peer shuffle fetches) — the wire-level counterpart of the
		// engine's FaultPlan task chaos (ntga-run -faults).
		chaosSeed   = flag.Int64("chaos-seed", 0, "seed for the network fault plan draws")
		chaosDrop   = flag.Float64("chaos-drop", 0, "probability an outbound dial is refused")
		chaosSever  = flag.Float64("chaos-sever", 0, "probability an outbound message severs its connection")
		chaosSevers = flag.Int("chaos-max-severs", 0, "cap on sever injections (0 = unlimited)")
		chaosDelayP = flag.Float64("chaos-delay-rate", 0, "probability an outbound message is delayed by -chaos-delay")
		chaosDelay  = flag.Duration("chaos-delay", 0, "injected per-message delay")

		// A scripted partition window: cut this worker off from the master
		// mid-run, then heal — the partition_smoke.sh scenario.
		partAfter = flag.Duration("partition-master-after", 0, "partition this worker from the master after this long (0 = never)")
		partFor   = flag.Duration("partition-master-for", 2*time.Second, "how long the scripted partition lasts before healing")
	)
	flag.Parse()

	if *master == "" {
		fatal(fmt.Errorf("-master is required"))
	}
	var tr cluster.Transport
	var chaos *cluster.ChaosNetwork
	const chaosLabel = "worker"
	if *chaosDrop > 0 || *chaosSever > 0 || (*chaosDelayP > 0 && *chaosDelay > 0) || *partAfter > 0 {
		chaos = cluster.NewChaosNetwork(cluster.NetFaultPlan{
			Seed:      *chaosSeed,
			DropRate:  *chaosDrop,
			SeverRate: *chaosSever,
			MaxSevers: *chaosSevers,
			DelayRate: *chaosDelayP,
			Delay:     *chaosDelay,
		})
		tr = chaos.Transport(chaosLabel, nil)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Addr:        *addr,
		MapSlots:    *mapSlots,
		ReduceSlots: *redSlots,
		TaskDelay:   *taskDelay,
	}, tr, *master)
	if err := w.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ntga-worker: registered as worker %d at %s (master %s, %d map + %d reduce slots)\n",
		w.ID(), w.Addr(), *master, *mapSlots, *redSlots)

	if chaos != nil && *partAfter > 0 {
		// The master never registered a chaos listener, so its edge label is
		// its dial address.
		go func() {
			time.Sleep(*partAfter)
			fmt.Fprintf(os.Stderr, "ntga-worker: chaos: partitioning from master for %s\n", *partFor)
			chaos.PartitionBoth(chaosLabel, *master)
			time.Sleep(*partFor)
			chaos.HealBoth(chaosLabel, *master)
			fmt.Fprintf(os.Stderr, "ntga-worker: chaos: partition healed\n")
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	w.Close()
	// Give in-flight RPC teardown a beat before exiting.
	time.Sleep(50 * time.Millisecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ntga-worker:", err)
	os.Exit(1)
}
