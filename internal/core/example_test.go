package core_test

import (
	"fmt"

	"ntga/internal/core"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// Example walks the paper's running example end to end in memory: group
// triples by subject (γ), apply the β group-filter (σ^βγ) for an
// unbound-property star pattern, and contrast the concise implicit
// representation with its eager β-unnest (μ^β).
func Example() {
	g := rdf.NewGraph()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	g.Add(ex("gene9"), ex("label"), rdf.NewLiteral("retinoid X receptor"))
	g.Add(ex("gene9"), ex("xGO"), ex("go1"))
	g.Add(ex("gene9"), ex("xGO"), ex("go9"))
	g.Add(ex("gene9"), ex("synonym"), rdf.NewLiteral("RCoR-1"))
	g.Add(ex("gene9"), ex("xRef"), ex("hs2131"))
	// homod2 lacks xGO and must fail structure validation.
	g.Add(ex("homod2"), ex("label"), rdf.NewLiteral("homeo domain"))

	q := query.MustCompile(sparql.MustParse(`
PREFIX ex: <http://ex/>
SELECT * WHERE {
  ?g ex:label ?l .
  ?g ex:xGO ?go .
  ?g ?p ?o .
}`), g.Dict)

	groups := core.Group(g.Triples)
	fmt.Printf("subject triplegroups: %d\n", len(groups))

	// The operators build in a Scratch; what they return lasts until its Reset.
	var s core.Scratch
	var kept []core.AnnTG
	for _, tg := range groups {
		kept = append(kept, s.UnbGrpFilter(tg, q.Stars)...)
	}
	fmt.Printf("groups passing the β group-filter: %d\n", len(kept))

	nested := kept[0]
	fmt.Printf("implicit rows in one nested AnnTG: %d\n", core.CountExpansions(q, nested))

	perfect := s.BetaUnnest(q.Stars[0], nested)
	fmt.Printf("perfect triplegroups after eager β-unnest: %d\n", len(perfect))

	// Output:
	// subject triplegroups: 2
	// groups passing the β group-filter: 1
	// implicit rows in one nested AnnTG: 10
	// perfect triplegroups after eager β-unnest: 5
}
