// Package integration fuzz-tests the full stack: randomly generated
// unbound-property queries over randomly generated graphs, executed by
// every distributed engine and compared row-for-row against the in-memory
// reference evaluator.
package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ntga/internal/engine"
	"ntga/internal/enginetest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/refengine"
	"ntga/internal/relmr"
	"ntga/internal/sparql"
)

// genQuery builds a random acyclic star-tree query the planners accept:
// each star has 1–2 bound patterns and up to 2 unbound slots; every star
// after the first connects to an earlier star through exactly one shared
// variable (subject-side or object-side). Filters are sprinkled on object
// variables.
func genQuery(rng *rand.Rand, nProps, nObjs int) string {
	nStars := 1 + rng.Intn(3)
	totalSlots := 0 // bound the worst-case expansion: at most 2 unbound slots per query
	fresh := 0
	newVar := func(prefix string) string {
		fresh++
		return fmt.Sprintf("%s%d", prefix, fresh)
	}
	type star struct {
		subj     string
		patterns []string
		objVars  []string
	}
	stars := make([]*star, nStars)
	var filters []string
	for si := 0; si < nStars; si++ {
		st := &star{subj: newVar("s")}
		if si > 0 {
			// Connect to an earlier star: either this star's subject is an
			// object var over there (O-S), or they share an object var (O-O).
			parent := stars[rng.Intn(si)]
			if rng.Intn(2) == 0 || len(parent.objVars) == 0 {
				// O-S: parent gains a pattern pointing at our subject.
				if rng.Intn(2) == 0 {
					parent.patterns = append(parent.patterns,
						fmt.Sprintf("?%s ex:p%d ?%s .", parent.subj, rng.Intn(nProps), st.subj))
				} else {
					parent.patterns = append(parent.patterns,
						fmt.Sprintf("?%s ?%s ?%s .", parent.subj, newVar("u"), st.subj))
				}
			} else {
				// O-O: reuse one of the parent's object vars as ours.
				shared := parent.objVars[rng.Intn(len(parent.objVars))]
				st.patterns = append(st.patterns,
					fmt.Sprintf("?%s ex:p%d ?%s .", st.subj, rng.Intn(nProps), shared))
			}
		}
		nBound := 1 + rng.Intn(2)
		for b := 0; b < nBound; b++ {
			ov := newVar("o")
			st.objVars = append(st.objVars, ov)
			st.patterns = append(st.patterns,
				fmt.Sprintf("?%s ex:p%d ?%s .", st.subj, rng.Intn(nProps), ov))
		}
		nSlots := rng.Intn(3)
		if totalSlots+nSlots > 2 {
			nSlots = 2 - totalSlots
		}
		totalSlots += nSlots
		for u := 0; u < nSlots; u++ {
			ov := newVar("x")
			st.patterns = append(st.patterns,
				fmt.Sprintf("?%s ?%s ?%s .", st.subj, newVar("u"), ov))
			switch rng.Intn(3) {
			case 0:
				filters = append(filters, fmt.Sprintf("FILTER(?%s != ex:o%d)", ov, rng.Intn(nObjs)))
			case 1:
				filters = append(filters, fmt.Sprintf(`FILTER(CONTAINS(?%s, "o%d"))`, ov, rng.Intn(10)))
			}
		}
		stars[si] = st
	}
	var sb strings.Builder
	sb.WriteString("PREFIX ex: <http://ex/>\nSELECT * WHERE {\n")
	for _, st := range stars {
		for _, p := range st.patterns {
			sb.WriteString("  " + p + "\n")
		}
	}
	for _, f := range filters {
		sb.WriteString("  " + f + "\n")
	}
	sb.WriteString("}")
	return sb.String()
}

func allEngines() []engine.QueryEngine {
	return []engine.QueryEngine{
		relmr.NewPig(),
		relmr.NewHive(),
		relmr.NewPigText(),
		relmr.NewHiveText(),
		ntgamr.NewEager(),
		ntgamr.New(ntgamr.LazyFull, 0),
		ntgamr.New(ntgamr.LazyPartial, 4),
		ntgamr.NewLazy(),
	}
}

// clusterVariants are the MR configurations every fuzzed query runs under:
// the roomy in-memory cluster and a spilling one whose 192-byte sort buffer
// is far below any map task's output, forcing the spill/external-merge path
// on every job.
var clusterVariants = []struct {
	name string
	mk   func() *mapreduce.Engine
}{
	{"mem", enginetest.NewMR},
	{"spill", func() *mapreduce.Engine { return enginetest.NewSpillMR(192) }},
}

func TestFuzzEnginesAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	const rounds = 50
	rng := rand.New(rand.NewSource(20150323)) // EDBT 2015 start date as seed
	for round := 0; round < rounds; round++ {
		nProps := 3 + rng.Intn(4)
		nObjs := 10 + rng.Intn(20)
		// Many subjects relative to triples keeps per-subject multiplicity
		// (and therefore the worst-case expansion) bounded.
		g := enginetest.RandomGraph(rng.Int63(), 120+rng.Intn(80), 30+rng.Intn(10), nProps, nObjs)
		src := genQuery(rng, nProps, nObjs)
		pq, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("round %d: generated unparsable query:\n%s\n%v", round, src, err)
		}
		q, err := query.Compile(pq, g.Dict)
		if err != nil {
			// The generator can produce shapes the planner rejects (e.g. an
			// O-O reuse creating a second connection). Those are fine to
			// skip — the compiler's job is to reject them crisply.
			continue
		}
		want := refengine.Evaluate(q, g)
		if len(want) > 20000 {
			continue // pathological cross product; not informative
		}
		for _, eng := range allEngines() {
			for _, variant := range clusterVariants {
				mr := variant.mk()
				if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
					t.Fatal(err)
				}
				res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
				if err != nil {
					t.Fatalf("round %d: %s (%s) failed on\n%s\n%v", round, eng.Name(), variant.name, src, err)
				}
				if !query.RowsEqual(want, res.Rows) {
					t.Fatalf("round %d: %s (%s) differs from reference on\n%s\n%s",
						round, eng.Name(), variant.name, src, query.DiffRows(want, res.Rows, 6))
				}
			}
		}

		// The COUNT(*) variant of the same query must agree with the
		// reference row count on a spilling cluster (counting takes the
		// engines' no-expansion path, a separate code shape worth fuzzing).
		countSrc := strings.Replace(src, "SELECT *", "SELECT (COUNT(*) AS ?cnt)", 1)
		cq, err := query.Compile(mustParse(t, countSrc), g.Dict)
		if err != nil {
			continue
		}
		for _, eng := range allEngines() {
			mr := enginetest.NewSpillMR(192)
			if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(eng, mr, cq, plan.Source{Base: "in"})
			if err != nil {
				t.Fatalf("round %d: %s failed on count variant of\n%s\n%v", round, eng.Name(), src, err)
			}
			if res.Count != int64(len(want)) {
				t.Fatalf("round %d: %s counted %d, reference %d, on\n%s",
					round, eng.Name(), res.Count, len(want), countSrc)
			}
		}
	}
}

func mustParse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("unparsable query:\n%s\n%v", src, err)
	}
	return pq
}

func TestFuzzCountAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	const rounds = 20
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		nProps := 3 + rng.Intn(3)
		g := enginetest.RandomGraph(rng.Int63(), 150, 30, nProps, 20)
		src := genQuery(rng, nProps, 20)
		src = strings.Replace(src, "SELECT *", "SELECT (COUNT(*) AS ?cnt)", 1)
		pq, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		q, err := query.Compile(pq, g.Dict)
		if err != nil {
			continue
		}
		want := int64(len(refengine.Evaluate(q, g)))
		for _, eng := range allEngines() {
			mr := enginetest.NewMR()
			if err := engine.LoadGraph(mr.DFS(), "in", g); err != nil {
				t.Fatal(err)
			}
			res, err := engine.Run(eng, mr, q, plan.Source{Base: "in"})
			if err != nil {
				t.Fatalf("round %d: %s failed on\n%s\n%v", round, eng.Name(), src, err)
			}
			if res.Count != want {
				t.Fatalf("round %d: %s counted %d, reference %d, on\n%s",
					round, eng.Name(), res.Count, want, src)
			}
		}
	}
}
