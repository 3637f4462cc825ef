package query

import (
	"fmt"
	"strings"

	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// BoundPattern is a triple pattern with a concrete property inside a star.
type BoundPattern struct {
	// Prop is the dictionary ID of the bound property. NoID means the
	// property IRI does not occur in the dataset, so the pattern (and its
	// whole star) matches nothing.
	Prop rdf.ID
	// OVar is the object variable name, or "" when the object is constant.
	OVar string
	// Obj is the pushed-down predicate on the object position.
	Obj Pred
	// PatIdx is the index of the source pattern in the parsed WHERE clause.
	PatIdx int
	// OCol is OVar's Row index, -1 for a constant object.
	OCol int
}

// UnboundSlot is an unbound-property triple pattern inside a star: the
// property position is a variable ("don't care" edge label).
type UnboundSlot struct {
	// PVar is the property variable name.
	PVar string
	// Prop is the pushed-down predicate on the property position (from
	// FILTERs on PVar).
	Prop Pred
	// OVar is the object variable name, or "" when the object is constant.
	OVar string
	// Obj is the pushed-down predicate on the object position. A selective
	// Obj makes this a "partially-bound object" pattern in the paper's
	// terminology.
	Obj Pred
	// PatIdx is the index of the source pattern in the parsed WHERE clause.
	PatIdx int
	// PCol and OCol are PVar's and OVar's Row indexes, OCol -1 for a
	// constant object.
	PCol, OCol int
}

// Star is a star subpattern: all patterns sharing one subject.
type Star struct {
	// Index is the star's position in Query.Stars and doubles as its
	// equivalence-class tag in the NTGA engines.
	Index int
	// SubjVar is the shared subject variable, or "" for a constant subject.
	SubjVar string
	// SubjCol is SubjVar's Row index, -1 for a constant subject.
	SubjCol int
	// Subj is the pushed-down predicate on the subject position.
	Subj Pred
	// Bound and Slots partition the star's patterns by property boundness.
	Bound []BoundPattern
	Slots []UnboundSlot
}

// BoundProps returns the star's bound property IDs (the paper's P_bnd set).
func (s *Star) BoundProps() []rdf.ID {
	out := make([]rdf.ID, len(s.Bound))
	for i, b := range s.Bound {
		out[i] = b.Prop
	}
	return out
}

// HasUnbound reports whether the star contains any unbound-property pattern.
func (s *Star) HasUnbound() bool { return len(s.Slots) > 0 }

// NPatterns returns the total number of triple patterns in the star.
func (s *Star) NPatterns() int { return len(s.Bound) + len(s.Slots) }

// TripleMatchesStar reports whether a triple could play any role in the
// star: a bound-pattern match or an unbound-slot candidate. Subject
// constraints are NOT checked here (the caller routes by subject).
func (s *Star) TripleMatchesStar(t rdf.Triple) bool {
	for i := range s.Bound {
		if b := &s.Bound[i]; t.P == b.Prop && b.Obj.Match(t.O) {
			return true
		}
	}
	for i := range s.Slots {
		if sl := &s.Slots[i]; sl.Prop.Match(t.P) && sl.Obj.Match(t.O) {
			return true
		}
	}
	return false
}

// Role says where in a star a join variable surfaces.
type Role int

// Join-variable roles.
const (
	// RoleSubject: the variable is the star's subject.
	RoleSubject Role = iota
	// RoleBoundObj: the variable is the object of bound pattern Idx.
	RoleBoundObj
	// RoleSlotObj: the variable is the object of unbound slot Idx. Joins in
	// this role force β-unnesting of the slot (the paper's hard case).
	RoleSlotObj
)

func (r Role) String() string {
	switch r {
	case RoleSubject:
		return "subject"
	case RoleBoundObj:
		return "bound-object"
	case RoleSlotObj:
		return "unbound-object"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Pos locates one occurrence of a join variable.
type Pos struct {
	Star int
	Role Role
	Idx  int // bound-pattern or slot index within the star; unused for RoleSubject
}

func (p Pos) String() string {
	if p.Role == RoleSubject {
		return fmt.Sprintf("star%d.subject", p.Star)
	}
	return fmt.Sprintf("star%d.%s[%d]", p.Star, p.Role, p.Idx)
}

// Join is one inter-star equi-join edge of the left-deep execution plan:
// the partial result containing Left.Star is joined with Right.Star on Var.
type Join struct {
	Var   string
	Left  Pos
	Right Pos
}

func (j Join) String() string {
	return fmt.Sprintf("⋈[?%s] %s = %s", j.Var, j.Left, j.Right)
}

// Query is the compiled logical query.
type Query struct {
	Src  *sparql.Query
	Dict *rdf.Dict
	// Stars lists the star subpatterns in first-appearance order.
	Stars []*Star
	// Joins is the left-deep join sequence: Joins[i].Right.Star is the
	// (i+1)-th star folded into the running result.
	Joins []Join
	// AllVars lists every variable in first-use order; binding Rows are
	// indexed by this order.
	AllVars []string
	// VarIdx maps a variable name to its Row index.
	VarIdx map[string]int
	// Select lists projected variables (empty = all).
	Select   []string
	Distinct bool
}

// IsCount reports whether this is a COUNT(*) aggregation query.
func (q *Query) IsCount() bool { return q.Src.IsCount() }

// Empty reports whether the query provably has no results against the
// dataset (a constant term missing from the dictionary, or a bound property
// absent from the data).
func (q *Query) Empty() bool {
	for _, st := range q.Stars {
		if st.Subj.None {
			return true
		}
		for _, b := range st.Bound {
			if b.Prop == rdf.NoID || b.Obj.None {
				return true
			}
		}
		for _, sl := range st.Slots {
			if sl.Prop.None || sl.Obj.None {
				return true
			}
		}
	}
	return false
}

// TripleRelevant reports whether a triple can participate in any star —
// the map-side pushdown every engine applies when scanning the triple
// relation.
func (q *Query) TripleRelevant(t rdf.Triple) bool {
	for _, st := range q.Stars {
		if !st.Subj.Match(t.S) {
			continue
		}
		if st.TripleMatchesStar(t) {
			return true
		}
	}
	return false
}

// Explain renders a human-readable description of the compiled query.
func (q *Query) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %d star(s), %d join(s), %d var(s)\n",
		len(q.Stars), len(q.Joins), len(q.AllVars))
	for _, st := range q.Stars {
		subj := "?" + st.SubjVar
		if st.SubjVar == "" {
			subj = fmt.Sprintf("const(%s)", st.Subj)
		} else if !st.Subj.Any() {
			subj += "(" + st.Subj.String() + ")"
		}
		fmt.Fprintf(&sb, "  star %d: subject %s\n", st.Index, subj)
		for i, b := range st.Bound {
			obj := "?" + b.OVar
			if b.OVar == "" {
				obj = "const"
			}
			fmt.Fprintf(&sb, "    bound[%d]: prop=%d obj=%s pred=%s\n", i, b.Prop, obj, b.Obj)
		}
		for i, sl := range st.Slots {
			obj := "?" + sl.OVar
			if sl.OVar == "" {
				obj = "const"
			}
			fmt.Fprintf(&sb, "    slot[%d]: ?%s(%s) obj=%s pred=%s\n", i, sl.PVar, sl.Prop, obj, sl.Obj)
		}
	}
	for _, j := range q.Joins {
		fmt.Fprintf(&sb, "  %s\n", j)
	}
	return sb.String()
}
