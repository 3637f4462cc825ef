// Package engines is the query front door: the one table from engine names
// — as the CLIs, the daemon's requests and the cluster's query specs spell
// them — to engine instances, and the one place the pre-execution decisions
// (engine, φ_m, join order) are taken. Every process reaches them the same
// way: query.Parse, then Choose, then Choice.Apply. A shipped Choice
// therefore rebuilds the identical physical plan everywhere.
package engines

import (
	"fmt"

	"ntga/internal/engine"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/relmr"
)

// ByName maps a concrete engine name (never "auto" — Choose resolves that
// against the catalog) to a fresh instance; engines are stateless
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

// Choice is every decision taken about a query before any job exists: the
// concrete engine (never "auto"), its φ_m, and the star visit order. It is
// plain data, so a plan cache can keep it and a query spec can ship it; a
// worker applying the shipped Choice rebuilds the plan the master built.
type Choice struct {
	Engine string
	PhiM   int
	// Order is the star visit order; Apply rewrites q.Joins to it only
	// when Reordered, i.e. when it differs from the compile-time order.
	Order     []int
	Reordered bool
}

// Choose is the one place a requested engine becomes a Choice. It consults
// the §4.1 advisor (plan.AdviseUnnest) over the catalog with the reducer
// count the run will use, so the returned advice is what "auto" picks
// whatever engine was asked for; "auto" resolves to NTGA-Lazy or
// NTGA-Eager by it, and to the advised φ_m unless phiM is set. With
// optimize, the join-order search (plan.ReorderJoins) sets Order and
// returns its outcome; otherwise the Reorder is nil. The name is checked
// against ByName last, so an unknown engine still returns the advice and
// the reorder beside its error. Choose never mutates q — Apply does.
func Choose(cat *plan.Catalog, q *query.Query, name string, phiM, reducers int, optimize bool) (Choice, plan.UnnestAdvice, *plan.Reorder, error) {
	advice, err := plan.AdviseUnnest(cat.AvgTriplesPerSubject(), cat.Objects, q, reducers)
	if name == "auto" {
		if err != nil {
			return Choice{}, advice, nil, err
		}
		name = "ntga-eager"
		if advice.Lazy {
			name = "ntga-lazy"
		}
		if phiM == 0 {
			phiM = advice.PhiM
		}
	}
	c := Choice{Engine: name, PhiM: phiM}
	var r *plan.Reorder
	if optimize {
		if r, err = plan.ReorderJoins(cat, q); err != nil {
			return Choice{}, advice, nil, err
		}
		c.Order, c.Reordered = r.Order, r.Changed
	}
	if _, err := ByName(name, phiM); err != nil {
		return Choice{}, advice, r, err
	}
	return c, advice, r, nil
}

// Apply puts the choice on a query compiled from the same text: it sets
// the chosen join order on q.Joins and returns the chosen engine. An order
// that does not fit q is an error, never a silent fallback to the
// compile-time order.
func (c Choice) Apply(q *query.Query) (engine.QueryEngine, error) {
	if c.Reordered {
		joins, err := q.JoinsForOrder(c.Order)
		if err != nil {
			return nil, fmt.Errorf("engines: applying join order: %w", err)
		}
		q.Joins = joins
	}
	return ByName(c.Engine, c.PhiM)
}
