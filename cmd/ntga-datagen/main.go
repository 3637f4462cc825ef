// Command ntga-datagen writes one of the synthetic benchmark datasets
// (BSBM-like, Bio2RDF-like LifeSci, DBpedia-like Infobox) as N-Triples.
//
// Usage:
//
//	ntga-datagen -dataset bsbm -scale 2 -seed 7 -out data.nt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ntga/internal/bench"
	"ntga/internal/rdf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state passed in: the arguments after the
// program name, the two output streams, and the exit status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "bsbm", "dataset generator: bsbm, lifesci, infobox")
		scale   = fs.Int("scale", 1, "size multiplier (1 ≈ a few thousand triples)")
		seed    = fs.Int64("seed", 42, "generator seed")
		out     = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	g, err := bench.Dataset(*dataset, *scale, *seed)
	if err == nil {
		err = write(stdout, *out, g)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ntga-datagen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d triples (%d distinct terms)\n", g.Len(), g.Dict.Len())
	return 0
}

// write writes g as N-Triples to the file at path, or to stdout when path
// is empty.
func write(stdout io.Writer, path string, g *rdf.Graph) error {
	if path == "" {
		return rdf.WriteNTriples(stdout, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rdf.WriteNTriples(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
