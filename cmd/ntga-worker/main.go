// Command ntga-worker runs one distributed-mode worker: it registers with
// the master an ntga-serve -workers daemon hosts, rebuilds query plans from
// the specs the master leases to it, executes map/reduce task attempts, and
// serves its committed map output to peer workers over the same RPC
// transport.
//
// Usage:
//
//	ntga-serve -data data.nt -addr 127.0.0.1:7457 -workers 127.0.0.1:7455
//	ntga-worker -master 127.0.0.1:7455
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntga/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned. A
// worker that started serves until SIGINT or SIGTERM.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		master    = fs.String("master", "", "the master's worker RPC address: the -workers address of ntga-serve (required)")
		addr      = fs.String("addr", "127.0.0.1:0", "this worker's shuffle-serving listen address")
		mapSlots  = fs.Int("map-slots", 2, "concurrent map tasks")
		redSlots  = fs.Int("reduce-slots", 2, "concurrent reduce tasks")
		taskDelay = fs.Duration("task-delay", 0, "artificial per-task delay (smoke tests: stretch jobs so failures land mid-run)")

		// Seeded network chaos on this worker's outbound edges (master RPC
		// and peer shuffle fetches) — the wire-level counterpart of the
		// engine's FaultPlan task chaos (ntga-run -faults).
		chaosSeed   = fs.Int64("chaos-seed", 0, "seed for the network fault plan draws")
		chaosDrop   = fs.Float64("chaos-drop", 0, "probability an outbound dial is refused")
		chaosSever  = fs.Float64("chaos-sever", 0, "probability an outbound message severs its connection")
		chaosSevers = fs.Int("chaos-max-severs", 0, "cap on sever injections (0 = unlimited)")
		chaosDelayP = fs.Float64("chaos-delay-rate", 0, "probability an outbound message is delayed by -chaos-delay")
		chaosDelay  = fs.Duration("chaos-delay", 0, "injected per-message delay")

		// A scripted partition window: cut this worker off from the master
		// mid-run, then heal — the partition_smoke.sh scenario.
		partAfter = fs.Duration("partition-master-after", 0, "partition this worker from the master after this long (0 = never)")
		partFor   = fs.Duration("partition-master-for", 2*time.Second, "how long the scripted partition lasts before healing")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"-chaos-drop", *chaosDrop}, {"-chaos-sever", *chaosSever}, {"-chaos-delay-rate", *chaosDelayP}} {
		if p.v < 0 || p.v > 1 {
			fmt.Fprintf(stderr, "ntga-worker: %s %v is not a probability in [0, 1]\n", p.name, p.v)
			return 2
		}
	}
	if *master == "" {
		fmt.Fprintln(stderr, "ntga-worker: -master is required")
		return 1
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
		fmt.Fprintln(stderr, "ntga-worker:", err)
		return 1
	}
	fmt.Fprintf(stderr, "ntga-worker: registered as worker %d at %s (master %s, %d map + %d reduce slots)\n",
		w.ID(), w.Addr(), *master, *mapSlots, *redSlots)

	if chaos != nil && *partAfter > 0 {
		// The master never registered a chaos listener, so its edge label is
		// its dial address.
		go func() {
			time.Sleep(*partAfter)
			fmt.Fprintf(stderr, "ntga-worker: chaos: partitioning from master for %s\n", *partFor)
			chaos.PartitionBoth(chaosLabel, *master)
			time.Sleep(*partFor)
			chaos.HealBoth(chaosLabel, *master)
			fmt.Fprintf(stderr, "ntga-worker: chaos: partition healed\n")
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	w.Close()
	// Give in-flight RPC teardown a beat before exiting.
	time.Sleep(50 * time.Millisecond)
	return 0
}
