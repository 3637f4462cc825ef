package plan

// Source says where the triple relation T sits — the one piece of plan input
// that decides whether a cycle shuffles. Callers describe what the warehouse
// holds; engine.Plan decides what of it a plan may use (an uncompacted delta
// chain makes any layout stale) and each engine's plan builder decides what
// it can exploit (Pig and Sel-SJ-first ignore Part).
type Source struct {
	// Base is the DFS name of the flat base relation.
	Base string
	// Deltas is the ordered chain of uncompacted delta blocks overlaid on
	// Base: every scan of T reads base ∪ deltas (ApplyDeltaOverlay).
	Deltas []string
	// Part, when non-nil, is a bucketed layout of Base the plan may read in
	// place of full scans.
	Part *Partitioning
}
