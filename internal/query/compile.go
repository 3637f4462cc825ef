package query

import (
	"fmt"

	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// Compile resolves a parsed query against a dataset dictionary, decomposes
// it into star subpatterns, pushes filters down to term predicates, and
// derives the left-deep inter-star join plan.
//
// Supported shape (covers the paper's full query catalog): acyclic
// conjunctive graph patterns whose inter-star connections are equi-joins on
// shared variables; each object variable appears at most once per star;
// property variables appear in exactly one pattern.
func Compile(src *sparql.Query, dict *rdf.Dict) (*Query, error) {
	q := &Query{
		Src:      src,
		Dict:     dict,
		VarIdx:   make(map[string]int),
		Distinct: src.Distinct,
	}
	q.AllVars = src.Vars()
	for i, v := range q.AllVars {
		q.VarIdx[v] = i
	}
	q.Select = src.Select
	if len(q.Select) == 0 {
		q.Select = q.AllVars
	}

	if err := q.buildStars(); err != nil {
		return nil, err
	}
	if err := q.validateVarUse(); err != nil {
		return nil, err
	}
	if err := q.buildJoins(); err != nil {
		return nil, err
	}
	return q, nil
}

// Parse parses SPARQL text and compiles it against a dictionary: the first
// step of every query, whichever process runs it.
func Parse(text string, dict *rdf.Dict) (*Query, error) {
	src, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	return Compile(src, dict)
}

// MustCompile is Compile for statically-known queries; it panics on error.
func MustCompile(src *sparql.Query, dict *rdf.Dict) *Query {
	q, err := Compile(src, dict)
	if err != nil {
		panic(err)
	}
	return q
}

func subjectKey(t sparql.PatternTerm) string {
	if t.IsVar {
		return "v:" + t.Var
	}
	return "c:" + t.Term.Key()
}

func (q *Query) buildStars() error {
	src := q.Src
	starOf := make(map[string]*Star)
	for pi, tp := range src.Where {
		key := subjectKey(tp.S)
		st, ok := starOf[key]
		if !ok {
			subjPred, err := compilePred(q.Dict, tp.S, src.Filters)
			if err != nil {
				return err
			}
			st = &Star{Index: len(q.Stars), Subj: subjPred}
			st.SubjVar, st.SubjCol = q.column(tp.S)
			starOf[key] = st
			q.Stars = append(q.Stars, st)
		}
		objPred, err := compilePred(q.Dict, tp.O, src.Filters)
		if err != nil {
			return err
		}
		oVar, oCol := q.column(tp.O)
		if tp.P.IsVar {
			propPred, err := compilePred(q.Dict, tp.P, src.Filters)
			if err != nil {
				return err
			}
			st.Slots = append(st.Slots, UnboundSlot{
				PVar: tp.P.Var, Prop: propPred, OVar: oVar, Obj: objPred, PatIdx: pi,
				PCol: q.VarIdx[tp.P.Var], OCol: oCol,
			})
		} else {
			prop, _ := q.Dict.Lookup(tp.P.Term) // NoID marks a property absent from the data
			st.Bound = append(st.Bound, BoundPattern{
				Prop: prop, OVar: oVar, Obj: objPred, PatIdx: pi, OCol: oCol,
			})
		}
	}
	return nil
}

// column returns a pattern position's variable and its Row index, or "" and
// -1 for a constant: the column each binding pattern fills, compiled once so
// that expanding a result never looks a variable up.
func (q *Query) column(t sparql.PatternTerm) (string, int) {
	if !t.IsVar {
		return "", -1
	}
	return t.Var, q.VarIdx[t.Var]
}

// varUse tracks every structural position a variable occupies.
type varUse struct {
	subjectOf []int // star indices where it is the subject
	objectAt  []Pos // object positions
	propAt    []Pos // property (unbound-slot) positions; Idx is the slot
}

func (q *Query) varUses() map[string]*varUse {
	uses := make(map[string]*varUse)
	get := func(v string) *varUse {
		u, ok := uses[v]
		if !ok {
			u = &varUse{}
			uses[v] = u
		}
		return u
	}
	for _, st := range q.Stars {
		if st.SubjVar != "" {
			get(st.SubjVar).subjectOf = append(get(st.SubjVar).subjectOf, st.Index)
		}
		for bi, b := range st.Bound {
			if b.OVar != "" {
				get(b.OVar).objectAt = append(get(b.OVar).objectAt,
					Pos{Star: st.Index, Role: RoleBoundObj, Idx: bi})
			}
		}
		for si, sl := range st.Slots {
			get(sl.PVar).propAt = append(get(sl.PVar).propAt,
				Pos{Star: st.Index, Role: RoleSlotObj /* placeholder role */, Idx: si})
			if sl.OVar != "" {
				get(sl.OVar).objectAt = append(get(sl.OVar).objectAt,
					Pos{Star: st.Index, Role: RoleSlotObj, Idx: si})
			}
		}
	}
	return uses
}

func (q *Query) validateVarUse() error {
	for v, u := range q.varUses() {
		if len(u.propAt) > 1 {
			return fmt.Errorf("query: property variable ?%s used in %d patterns (unsupported)", v, len(u.propAt))
		}
		if len(u.propAt) == 1 && (len(u.subjectOf) > 0 || len(u.objectAt) > 0) {
			return fmt.Errorf("query: property variable ?%s also used in subject/object position (unsupported)", v)
		}
		// One object occurrence per star.
		perStar := make(map[int]int)
		for _, p := range u.objectAt {
			perStar[p.Star]++
			if perStar[p.Star] > 1 {
				return fmt.Errorf("query: variable ?%s used as object twice in star %d (unsupported)", v, p.Star)
			}
		}
		// Subject-of and object-in the same star is a self-loop.
		for _, si := range u.subjectOf {
			if perStar[si] > 0 {
				return fmt.Errorf("query: variable ?%s used as both subject and object of star %d (unsupported)", v, si)
			}
		}
	}
	return nil
}

// positions returns every joinable position of a variable.
func positionsOf(u *varUse) []Pos {
	var out []Pos
	for _, si := range u.subjectOf {
		out = append(out, Pos{Star: si, Role: RoleSubject})
	}
	out = append(out, u.objectAt...)
	return out
}

// sharedJoinVars maps star pairs {a,b} (a<b) to the variables connecting
// them (property variables excluded — they never join).
func sharedJoinVars(uses map[string]*varUse) map[[2]int][]string {
	shared := make(map[[2]int][]string)
	addShared := func(a, b int, v string) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		for _, existing := range shared[key] {
			if existing == v {
				return
			}
		}
		shared[key] = append(shared[key], v)
	}
	for v, u := range uses {
		if len(u.propAt) > 0 {
			continue
		}
		pos := positionsOf(u)
		for i := 0; i < len(pos); i++ {
			for j := i + 1; j < len(pos); j++ {
				addShared(pos[i].Star, pos[j].Star, v)
			}
		}
	}
	return shared
}

// foldJoin derives the join that folds star next into the visited set, or
// ok=false when they share no variable. It errors on multi-variable
// connections (cyclic join graphs).
func foldJoin(uses map[string]*varUse, shared map[[2]int][]string, visited map[int]bool, next int) (Join, bool, error) {
	var connVars []string
	leftStarFor := make(map[string]int)
	for vs := range visited {
		a, b := vs, next
		if a > b {
			a, b = b, a
		}
		for _, v := range shared[[2]int{a, b}] {
			if _, seen := leftStarFor[v]; !seen {
				connVars = append(connVars, v)
				leftStarFor[v] = vs
			} else if leftStarFor[v] > vs {
				leftStarFor[v] = vs
			}
		}
	}
	if len(connVars) == 0 {
		return Join{}, false, nil
	}
	if len(connVars) > 1 {
		return Join{}, false, fmt.Errorf("query: star %d connects to the plan via %d variables (cyclic join graphs unsupported)",
			next, len(connVars))
	}
	v := connVars[0]
	left, err := findPos(uses[v], leftStarFor[v], visited)
	if err != nil {
		return Join{}, false, err
	}
	right, err := findPosInStar(uses[v], next)
	if err != nil {
		return Join{}, false, err
	}
	return Join{Var: v, Left: left, Right: right}, true, nil
}

func (q *Query) buildJoins() error {
	if len(q.Stars) == 1 {
		return nil
	}
	uses := q.varUses()
	shared := sharedJoinVars(uses)

	visited := map[int]bool{0: true}
	joinedOn := make(map[int]string) // star -> var it was folded in on
	for len(visited) < len(q.Stars) {
		progressed := false
		for next := 1; next < len(q.Stars); next++ {
			if visited[next] {
				continue
			}
			j, ok, err := foldJoin(uses, shared, visited, next)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			q.Joins = append(q.Joins, j)
			visited[next] = true
			joinedOn[next] = j.Var
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("query: join graph is disconnected (cartesian products unsupported)")
		}
	}
	return nil
}

// findPos returns the position of the variable in the preferred star, or in
// any visited star.
func findPos(u *varUse, preferred int, visited map[int]bool) (Pos, error) {
	if p, err := findPosInStar(u, preferred); err == nil {
		return p, nil
	}
	for _, p := range positionsOf(u) {
		if visited[p.Star] {
			return p, nil
		}
	}
	return Pos{}, fmt.Errorf("query: internal error: no visited position for join variable")
}

func findPosInStar(u *varUse, star int) (Pos, error) {
	for _, p := range positionsOf(u) {
		if p.Star == star {
			return p, nil
		}
	}
	return Pos{}, fmt.Errorf("query: internal error: variable not in star %d", star)
}
