// Package engines is the one table from engine names — as the CLIs, the
// daemon's requests and the cluster's query specs spell them — to engine
// instances. The server, the master and every worker resolve through it, so
// a shipped name rebuilds the identical physical plan everywhere.
package engines

import (
	"fmt"

	"ntga/internal/engine"
	"ntga/internal/ntgamr"
	"ntga/internal/relmr"
)

// ByName maps a concrete engine name (never "auto" — callers resolve that
// against their catalog first) to a fresh instance; engines are stateless
// between runs, but nothing is shared across goroutines this way. phiM <= 0
// selects the default partition range for the NTGA engines that use one.
func ByName(name string, phiM int) (engine.QueryEngine, error) {
	switch name {
	case "pig":
		return relmr.NewPig(), nil
	case "hive":
		return relmr.NewHive(), nil
	case "sj-per-cycle":
		return relmr.NewSJPerCycle(), nil
	case "sel-sj-first":
		return relmr.NewSelSJFirst(), nil
	case "ntga-eager":
		return ntgamr.NewEager(), nil
	case "ntga-lazy":
		return ntgamr.New(ntgamr.LazyAuto, phiM), nil
	case "ntga-lazy-full":
		return ntgamr.New(ntgamr.LazyFull, phiM), nil
	case "ntga-lazy-partial":
		return ntgamr.New(ntgamr.LazyPartial, phiM), nil
	default:
		return nil, fmt.Errorf("engines: unknown engine %q (want pig, hive, sj-per-cycle, sel-sj-first, ntga-eager, ntga-lazy, ntga-lazy-full, ntga-lazy-partial)", name)
	}
}
