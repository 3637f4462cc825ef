// Command benchmark is the repository's one yardstick: five closed-loop
// workloads over the query engines, the daemon, the write path and the
// loopback cluster, each measured end to end (untraced) and layer by layer
// (a traced pass plus micro-benchmarks of each layer's public functions).
//
//	benchmark/run.sh --workload batch_flat --seed 42 --seconds 15 --trace 0
//	benchmark/run.sh -seed 42 -out a.json          # every workload, both passes
//	benchmark/run.sh -compare a.json b.json
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		workloads = flag.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
		seed      = flag.Int64("seed", 42, "every input — graphs, batches, the Zipf trace — is generated from it")
		seconds   = flag.Float64("seconds", 15, "how long one run measures")
		trace     = flag.String("trace", "both", "0: end-to-end run, 1: per-layer traced run, both: one after the other")
		out       = flag.String("out", "", "append every run's full result to this file, one JSON object per line")
		smoke     = flag.Bool("smoke", false, "tiny inputs and two passes per section instead of a time budget")
		compare   = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	o := options{seed: *seed, seconds: *seconds, sz: fullSizes, smoke: *smoke, outDir: "out"}
	if *smoke {
		o.sz = smokeSizes
	}
	var passes []func(string, options) (*result, error)
	switch *trace {
	case "0":
		passes = append(passes, runEndToEnd)
	case "1":
		passes = append(passes, runTraced)
	case "both":
		passes = append(passes, runEndToEnd, runTraced)
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}

	correct := true
	for _, name := range strings.Split(*workloads, ",") {
		line := contractLine{Correct: true, Metrics: make(map[string]contractMetric)}
		for _, pass := range passes {
			r, err := pass(strings.TrimSpace(name), o)
			if err != nil {
				fatal(err)
			}
			printResult(r)
			if *out != "" {
				if err := appendResult(*out, r); err != nil {
					fatal(err)
				}
			}
			line.add(r)
		}
		correct = correct && line.Correct
		// The contract's result: the last line of standard output.
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// contractLine is the one JSON object a run prints on standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l *contractLine) add(r *result) {
	l.Correct = l.Correct && r.Correct
	l.Attempted += r.Attempted
	l.Failed += r.Failed
	for name, v := range r.Metrics {
		l.Metrics[name] = contractMetric{v.Value, v.Unit}
	}
}

// printResult lists every metric by name with its unit and sample count on
// standard error, followed by the run's findings and failures.
func printResult(r *result) {
	fmt.Fprintf(os.Stderr, "\n== %s  trace=%d  seed=%d  seconds=%g  inputs_hash=%s  %s GOMAXPROCS=%d\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.InputsHash, r.Go, r.GOMAXPROCS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-40s %16.4f %-6s samples=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Findings {
		fmt.Fprintln(os.Stderr, "finding:", f)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
