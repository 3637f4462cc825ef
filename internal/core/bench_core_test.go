package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// benchFixture builds a dataset of nSubjects subjects with mult unbound
// candidates each, plus bound label/xGO pairs, and the matching star query.
func benchFixture(b *testing.B, nSubjects, mult int) (*query.Query, []TripleGroup) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := rdf.NewGraph()
	for s := 0; s < nSubjects; s++ {
		subj := ex(fmt.Sprintf("s%d", s))
		g.Add(subj, ex("label"), rdf.NewLiteral(fmt.Sprintf("label %d", s)))
		g.Add(subj, ex("xGO"), ex(fmt.Sprintf("go%d", rng.Intn(50))))
		g.Add(subj, ex("xGO"), ex(fmt.Sprintf("go%d", rng.Intn(50))))
		for m := 0; m < mult; m++ {
			g.Add(subj, ex(fmt.Sprintf("p%d", m%7)), ex(fmt.Sprintf("o%d", rng.Intn(200))))
		}
	}
	g.Dedup()
	pq, err := sparql.Parse(unboundStarSrc)
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		b.Fatal(err)
	}
	return q, Group(g.Triples)
}

func BenchmarkGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	triples := make([]rdf.Triple, 100000)
	for i := range triples {
		triples[i] = rdf.Triple{
			S: rdf.ID(1 + rng.Intn(5000)),
			P: rdf.ID(1 + rng.Intn(40)),
			O: rdf.ID(1 + rng.Intn(20000)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Group(triples); len(got) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkUnbGrpFilter(b *testing.B) {
	q, groups := benchFixture(b, 2000, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, tg := range groups {
			n += len(UnbGrpFilter(tg, q.Stars))
		}
		if n == 0 {
			b.Fatal("nothing passed the filter")
		}
	}
}

func BenchmarkBetaUnnest(b *testing.B) {
	for _, mult := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("mult%d", mult), func(b *testing.B) {
			q, groups := benchFixture(b, 200, mult)
			var anntgs []AnnTG
			for _, tg := range groups {
				anntgs = append(anntgs, UnbGrpFilter(tg, q.Stars)...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, a := range anntgs {
					n += len(BetaUnnest(q.Stars[0], a))
				}
				if n == 0 {
					b.Fatal("no perfect TGs")
				}
			}
		})
	}
}

func BenchmarkPartialBetaUnnest(b *testing.B) {
	for _, m := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("phi%d", m), func(b *testing.B) {
			q, groups := benchFixture(b, 200, 32)
			var anntgs []AnnTG
			for _, tg := range groups {
				anntgs = append(anntgs, UnbGrpFilter(tg, q.Stars)...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, a := range anntgs {
					n += len(PartialBetaUnnest(q.Stars[0], a, 0, m))
				}
				if n == 0 {
					b.Fatal("no partial TGs")
				}
			}
		})
	}
}

func BenchmarkCountExpansions(b *testing.B) {
	q, groups := benchFixture(b, 1000, 24)
	var anntgs []AnnTG
	for _, tg := range groups {
		anntgs = append(anntgs, UnbGrpFilter(tg, q.Stars)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int64
		for _, a := range anntgs {
			total += CountExpansions(q, a)
		}
		if total == 0 {
			b.Fatal("zero count")
		}
	}
}

func BenchmarkExpand(b *testing.B) {
	q, groups := benchFixture(b, 200, 12)
	var anntgs []AnnTG
	for _, tg := range groups {
		anntgs = append(anntgs, UnbGrpFilter(tg, q.Stars)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, a := range anntgs {
			n += len(Expand(q, a))
		}
		if n == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAppendExpanded expands every AnnTG of BenchmarkExpand's fixture
// into one reused slab, as a result sink does: by columns (AppendExpanded)
// and, for the before row, by rows (the oracle in expand_oracle_test.go).
// Both allocate nothing once the slab has grown.
func BenchmarkAppendExpanded(b *testing.B) {
	q, groups := benchFixture(b, 200, 12)
	var anntgs []AnnTG
	for _, tg := range groups {
		anntgs = append(anntgs, UnbGrpFilter(tg, q.Stars)...)
	}
	for _, c := range []struct {
		name   string
		expand func([]rdf.ID, *query.Query, []AnnTG) ([]rdf.ID, int, error)
	}{{"columns", AppendExpanded}, {"rows", appendExpandedByRow}} {
		b.Run(c.name, func(b *testing.B) {
			var slab []rdf.ID
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = 0
				for j := range anntgs {
					var n int
					slab, n, _ = c.expand(slab[:0], q, anntgs[j:j+1])
					rows += n
				}
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

func BenchmarkAnnTGCodec(b *testing.B) {
	q, groups := benchFixture(b, 500, 16)
	var encoded [][]byte
	for _, tg := range groups {
		for _, a := range UnbGrpFilter(tg, q.Stars) {
			encoded = append(encoded, EncodeAnnTG(a))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range encoded {
			if _, err := DecodeAnnTG(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
