package plan

import (
	"ntga/internal/query"
	"ntga/internal/sparql"
)

// Cost is the estimated price of a physical plan in the paper's accounting:
// the number of MR cycles, the number of full scans of the triple relation,
// and the estimated shuffle bytes (map-output bytes summed over cycles —
// the metric the lazy β-unnest strategies attack).
type Cost struct {
	Cycles       int
	Scans        int
	ShuffleBytes int64
}

// ContainsSelectivity is the planner's fixed estimate for the fraction of
// values admitted by a CONTAINS filter. Substring selectivity cannot be
// derived from the catalog's counts, so a conservative constant stands in.
const ContainsSelectivity = 0.1

// shuffle framing overheads (bytes per emitted record), mirroring the
// engines' key/tag encodings.
const (
	keyOverhead    = 5 // join/subject key + side tag
	bucketOverhead = 3 // φ_m bucket key + side tag
	recOverhead    = 4 // record headers (component counts, pattern indexes)
)

// Estimator prices plans against a statistics catalog. All selectivities
// are derived from the query's *source* AST (property IRIs, constants,
// filters) rather than compiled dictionary IDs, so the same estimates come
// out whether or not the dataset was loaded — the
// `ntga-run -explain -stats` path compiles against an empty dictionary.
type Estimator struct {
	cat   *Catalog
	q     *query.Query
	stars []starEst
	files map[string]fileEst
}

// fileEst is the estimated content of one intermediate DFS file.
type fileEst struct {
	records float64
	bytes   float64
}

func (f fileEst) perRecord() float64 {
	if f.records <= 0 {
		return 0
	}
	return f.bytes / f.records
}

// starEst is the catalog-derived estimate of one star subpattern.
type starEst struct {
	// subjects is the expected number of subjects matching every bound
	// pattern of the star.
	subjects float64
	// triples is the expected number of star-relevant triples per full scan
	// of the relation.
	triples float64
	// boundMult[i] is the expected matching pairs per matching subject for
	// bound pattern i (the property's multiplicity discounted by the
	// object's selectivity, at least 1).
	boundMult []float64
	// slotCands[i] is the expected candidate-set size per subject of
	// unbound slot i — the paper's redundancy factor for that slot.
	slotCands []float64
	// expand is the fully-expanded tuples per matching subject:
	// Π boundMult × Π slotCands.
	expand float64
	// tgBytes is the nested triplegroup's bytes per matching subject
	// (candidates stored once, not cross-multiplied).
	tgBytes float64
	// tupleBytes is the expanded representation's bytes per tuple.
	tupleBytes float64
}

// NewEstimator derives the per-star estimates for a query.
func NewEstimator(cat *Catalog, q *query.Query) *Estimator {
	e := &Estimator{cat: cat, q: q, files: make(map[string]fileEst)}
	for _, st := range q.Stars {
		e.stars = append(e.stars, e.estimateStar(st))
	}
	return e
}

// pattern returns the source triple pattern behind a compiled pattern index.
func (e *Estimator) pattern(pi int) sparql.TriplePattern { return e.q.Src.Where[pi] }

// propKey returns the catalog key of a pattern's property when it is bound.
func (e *Estimator) propKey(pi int) (string, bool) {
	p := e.pattern(pi).P
	if p.IsVar {
		return "", false
	}
	return p.Term.Key(), true
}

// filterSel folds the selectivity of all filters on a variable, against a
// domain of the given cardinality.
func (e *Estimator) filterSel(v string, domain float64) float64 {
	sel := 1.0
	for _, f := range e.q.Src.Filters {
		if f.Var != v {
			continue
		}
		switch f.Op {
		case sparql.FilterEq:
			if domain > 1 {
				sel /= domain
			}
		case sparql.FilterContains:
			sel *= ContainsSelectivity
		case sparql.FilterNeq:
			// ≈ 1 for any non-trivial domain.
		}
	}
	return sel
}

// objSel estimates the fraction of a pattern's candidate objects admitted
// by its object term (constant or filtered variable). domain is the number
// of distinct object values in scope (the property's for bound patterns,
// the relation's for unbound slots).
func (e *Estimator) objSel(pi int, domain float64) float64 {
	o := e.pattern(pi).O
	if domain < 1 {
		domain = 1
	}
	if !o.IsVar {
		return 1 / domain
	}
	return e.filterSel(o.Var, domain)
}

// propSel estimates the fraction of the relation's triples admitted by an
// unbound slot's property variable (filters on the property variable).
func (e *Estimator) propSel(pi int) float64 {
	p := e.pattern(pi).P
	if !p.IsVar {
		return 1
	}
	return e.filterSel(p.Var, float64(len(e.cat.Props)))
}

func (e *Estimator) estimateStar(st *query.Star) starEst {
	cat := e.cat
	se := starEst{subjects: float64(cat.Subjects)}
	if se.subjects < 1 {
		se.subjects = 1
	}
	// A constant (or equality-filtered) subject pins the star to one subject.
	if firstPat := e.firstPatternOf(st); firstPat >= 0 {
		s := e.pattern(firstPat).S
		if !s.IsVar {
			se.subjects = 1
		} else {
			se.subjects *= e.filterSel(s.Var, float64(cat.Subjects))
		}
	}
	for _, b := range st.Bound {
		key, _ := e.propKey(b.PatIdx)
		ps := cat.Props[key]
		objSel := e.objSel(b.PatIdx, float64(ps.Objects))
		// Fraction of subjects carrying the property, thinned by the
		// probability that at least one of the subject's pairs satisfies the
		// object constraint.
		subjFrac := 0.0
		if cat.Subjects > 0 {
			subjFrac = float64(ps.Subjects) / float64(cat.Subjects)
		}
		matchProb := ps.Multiplicity() * objSel
		if matchProb > 1 {
			matchProb = 1
		}
		se.subjects *= subjFrac * matchProb
		mult := clampMin(ps.Multiplicity()*objSel, 1)
		if ps.Triples == 0 {
			mult = 0
		}
		se.boundMult = append(se.boundMult, mult)
		se.triples += float64(ps.Triples) * objSel
	}
	for _, sl := range st.Slots {
		propSel := e.propSel(sl.PatIdx)
		objSel := e.objSel(sl.PatIdx, float64(cat.Objects))
		cands := clampMin(cat.AvgTriplesPerSubject()*propSel*objSel, 1)
		se.slotCands = append(se.slotCands, cands)
		se.triples += float64(cat.Triples) * propSel * objSel
	}
	se.subjects = clampMin(se.subjects, 0)
	if se.subjects > float64(cat.Subjects) && cat.Subjects > 0 {
		se.subjects = float64(cat.Subjects)
	}
	se.expand = 1
	pairs := 0.0
	for _, m := range se.boundMult {
		se.expand *= clampMin(m, 1)
		pairs += m
	}
	for _, c := range se.slotCands {
		se.expand *= c
		pairs += c
	}
	tb := e.cat.AvgTripleBytes()
	se.tgBytes = pairs*tb + recOverhead
	se.tupleBytes = float64(st.NPatterns())*tb + recOverhead
	return se
}

// firstPatternOf returns any source-pattern index of the star (they all
// share the subject term).
func (e *Estimator) firstPatternOf(st *query.Star) int {
	if len(st.Bound) > 0 {
		return st.Bound[0].PatIdx
	}
	if len(st.Slots) > 0 {
		return st.Slots[0].PatIdx
	}
	return -1
}

// relevantTriples sums the star-relevant triples of every star — the
// records surviving the map-side pushdown of a full scan.
func (e *Estimator) relevantTriples() float64 {
	t := 0.0
	for _, se := range e.stars {
		t += se.triples
	}
	if t > float64(e.cat.Triples) {
		t = float64(e.cat.Triples)
	}
	return t
}

// starFile estimates one star's share of the grouping output: nested
// triplegroups, or fully-expanded records under eager unnest.
func (e *Estimator) starFile(star int, eager bool) fileEst {
	se := e.stars[star]
	if eager {
		recs := se.subjects * se.expand
		return fileEst{records: recs, bytes: recs * se.tupleBytes}
	}
	return fileEst{records: se.subjects, bytes: se.subjects * se.tgBytes}
}

// distinctJoinValues estimates the number of distinct values the join
// variable takes at one position.
func (e *Estimator) distinctJoinValues(pos query.Pos) float64 {
	switch pos.Role {
	case query.RoleSubject:
		return clampMin(e.stars[pos.Star].subjects, 1)
	case query.RoleBoundObj:
		b := e.q.Stars[pos.Star].Bound[pos.Idx]
		key, _ := e.propKey(b.PatIdx)
		ps := e.cat.Props[key]
		return clampMin(float64(ps.Objects)*e.objSel(b.PatIdx, float64(ps.Objects)), 1)
	case query.RoleSlotObj:
		sl := e.q.Stars[pos.Star].Slots[pos.Idx]
		return clampMin(float64(e.cat.Objects)*e.objSel(sl.PatIdx, float64(e.cat.Objects)), 1)
	default:
		return 1
	}
}

// joinOut estimates the joined output of two sides on a join edge: the
// classic |L|·|R| / max(V_L, V_R) equi-join cardinality.
func (e *Estimator) joinOut(left, right fileEst, j *query.Join) fileEst {
	vl := e.distinctJoinValues(j.Left)
	vr := e.distinctJoinValues(j.Right)
	v := vl
	if vr > v {
		v = vr
	}
	recs := left.records * right.records / clampMin(v, 1)
	return fileEst{records: recs, bytes: recs * (left.perRecord() + right.perRecord())}
}

func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

func f2i(v float64) int64 {
	if v < 0 {
		return 0
	}
	return int64(v + 0.5)
}
