// Command ntga-bench regenerates the paper's experiments: each figure or
// table of the evaluation section is a named experiment that runs every
// engine over the scaled-down datasets and prints the comparison tables.
//
// Usage:
//
//	ntga-bench -list
//	ntga-bench -fig fig9a
//	ntga-bench -fig all -scale 2
//	ntga-bench -fig fig9a -json
//
// With -json each figure is emitted as a JSON document whose per-engine
// rows pair the planner's estimated cycle count and shuffle volume with the
// measured ones, so the cost model's accuracy can be tracked over time.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ntga/internal/bench"
)

// runJSON is one engine's measured-vs-estimated row in -json output.
type runJSON struct {
	Engine          string `json:"engine"`
	OK              bool   `json:"ok"`
	Err             string `json:"err,omitempty"`
	DurationMS      int64  `json:"duration_ms"`
	Cycles          int    `json:"cycles"`
	EstCycles       int    `json:"est_cycles"`
	ShuffleBytes    int64  `json:"shuffle_bytes"`
	EstShuffleBytes int64  `json:"est_shuffle_bytes"`
	ReadBytes       int64  `json:"read_bytes"`
	Rows            int64  `json:"rows"`
}

type queryJSON struct {
	Query string    `json:"query"`
	Runs  []runJSON `json:"runs"`
}

// tableJSON mirrors a report's rendered comparison table, so figure output
// that is not per-query (e.g. the ablation sweeps) survives -json too.
type tableJSON struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

type figureJSON struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Notes   []string    `json:"notes,omitempty"`
	Tables  []tableJSON `json:"tables,omitempty"`
	Queries []queryJSON `json:"queries,omitempty"`
}

func toJSON(rep *bench.Report) figureJSON {
	fj := figureJSON{ID: rep.ID, Title: rep.Title, Notes: rep.Notes}
	for _, t := range rep.Tables {
		fj.Tables = append(fj.Tables, tableJSON{Title: t.Title, Header: t.Header, Rows: t.Rows})
	}
	for _, qr := range rep.Queries {
		qj := queryJSON{Query: qr.Query.ID}
		for _, r := range qr.Runs {
			qj.Runs = append(qj.Runs, runJSON{
				Engine:          r.Engine,
				OK:              r.OK,
				Err:             r.Err,
				DurationMS:      r.Duration.Milliseconds(),
				Cycles:          r.Cycles,
				EstCycles:       r.EstCycles,
				ShuffleBytes:    r.ShuffleBytes,
				EstShuffleBytes: r.EstShuffleBytes,
				ReadBytes:       r.ReadBytes,
				Rows:            r.Rows,
			})
		}
		fj.Queries = append(fj.Queries, qj)
	}
	return fj
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntga-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "all", "experiment id (see -list) or 'all'")
		scale  = fs.Int("scale", 1, "dataset size multiplier")
		seed   = fs.Int64("seed", 42, "dataset seed")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		asJSON = fs.Bool("json", false, "emit per-figure JSON with estimated vs actual cycles and shuffle bytes")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range bench.Figures() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	ids := bench.Figures()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}
	opt := bench.Options{Scale: *scale, Seed: *seed}
	status := 0
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, id := range ids {
		rep, err := bench.RunFigure(id, opt)
		if err != nil {
			fmt.Fprintf(stderr, "ntga-bench: %s: %v\n", id, err)
			status = 1
			continue
		}
		if *asJSON {
			if err := enc.Encode(toJSON(rep)); err != nil {
				fmt.Fprintf(stderr, "ntga-bench: %s: %v\n", id, err)
				status = 1
			}
			continue
		}
		fmt.Fprintln(stdout, rep.Render())
	}
	return status
}
