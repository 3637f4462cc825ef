package rdf

import (
	"sort"

	"ntga/internal/core/hash64"
)

// Graph is a dictionary-encoded triple multiset together with its dictionary.
// It is the in-memory representation of a dataset before it is loaded into
// the simulated DFS, and the working representation for the reference engine.
type Graph struct {
	Dict    *Dict
	Triples []Triple
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDict()}
}

// Add interns the three terms and appends the resulting triple.
func (g *Graph) Add(s, p, o Term) Triple {
	t := Triple{g.Dict.Encode(s), g.Dict.Encode(p), g.Dict.Encode(o)}
	g.Triples = append(g.Triples, t)
	return t
}

// AddID appends an already-encoded triple.
func (g *Graph) AddID(t Triple) { g.Triples = append(g.Triples, t) }

// Version content-hashes the graph's triples. IDs are stable for one
// dictionary, which lives exactly as long as the loaded dataset, so two
// processes that built their graphs the same way (or shipped the dictionary
// over the wire in ID order) agree on the version — the check the
// distributed cluster uses to refuse a worker holding another dataset.
func (g *Graph) Version() string {
	h := hash64.New()
	for _, t := range g.Triples {
		h.Addf("%d,%d,%d;", t.S, t.P, t.O)
	}
	return h.Hex()
}

// Len reports the number of triples.
func (g *Graph) Len() int { return len(g.Triples) }

// Dedup sorts the triples canonically and removes exact duplicates, matching
// RDF set semantics. It returns the number of duplicates removed.
func (g *Graph) Dedup() int {
	sort.Slice(g.Triples, func(i, j int) bool { return g.Triples[i].Less(g.Triples[j]) })
	out := g.Triples[:0]
	var prev Triple
	removed := 0
	for i, t := range g.Triples {
		if i > 0 && t == prev {
			removed++
			continue
		}
		out = append(out, t)
		prev = t
	}
	g.Triples = out
	return removed
}

// Properties returns the set of distinct property IDs in the graph, sorted.
func (g *Graph) Properties() []ID {
	seen := make(map[ID]struct{})
	for _, t := range g.Triples {
		seen[t.P] = struct{}{}
	}
	out := make([]ID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subjects returns the set of distinct subject IDs in the graph, sorted.
func (g *Graph) Subjects() []ID {
	seen := make(map[ID]struct{})
	for _, t := range g.Triples {
		seen[t.S] = struct{}{}
	}
	out := make([]ID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PropertyMultiplicity returns, for each property, the maximum number of
// triples sharing one subject with that property — the "multiplicity" the
// paper identifies as the driver of intermediate-result redundancy.
func (g *Graph) PropertyMultiplicity() map[ID]int {
	counts := make(map[[2]ID]int)
	for _, t := range g.Triples {
		counts[[2]ID{t.S, t.P}]++
	}
	max := make(map[ID]int)
	for sp, n := range counts {
		if n > max[sp[1]] {
			max[sp[1]] = n
		}
	}
	return max
}
