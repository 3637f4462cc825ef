package sparql

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"ntga/internal/rdf"
)

// Parse parses a SPARQL SELECT query in the supported subset. The text must
// be UTF-8, as SPARQL requires: an invalid byte inside a literal could
// neither render nor match an RDF term.
func Parse(src string) (*Query, error) {
	if !utf8.ValidString(src) {
		return nil, fmt.Errorf("sparql: query text is not valid UTF-8")
	}
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse for statically-known queries (the query catalog);
// it panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	tokens []token
	pos    int
}

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) advance() token {
	t := p.tokens[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.advance()
	if t.kind != kind {
		return t, fmt.Errorf("sparql: expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) query() (*Query, error) {
	q := &Query{Prefixes: make(map[string]string)}
	for p.keyword("PREFIX") {
		name, err := p.expect(tokPName, "prefix name")
		if err != nil {
			return nil, err
		}
		pfx := strings.TrimSuffix(name.text, ":")
		if i := strings.IndexByte(name.text, ':'); i >= 0 {
			pfx = name.text[:i]
			if name.text[i+1:] != "" {
				return nil, fmt.Errorf("sparql: malformed PREFIX declaration %q", name.text)
			}
		}
		iri, err := p.expect(tokIRI, "IRI")
		if err != nil {
			return nil, err
		}
		q.Prefixes[pfx] = iri.text
	}
	if !p.keyword("SELECT") {
		return nil, fmt.Errorf("sparql: expected SELECT, got %s", p.peek())
	}
	if p.keyword("DISTINCT") {
		q.Distinct = true
	}
	if p.peek().kind == tokLParen {
		// (COUNT(*) AS ?var)
		p.advance()
		if !p.keyword("COUNT") {
			return nil, fmt.Errorf("sparql: expected COUNT, got %s", p.peek())
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokStar, "'*'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if !p.keyword("AS") {
			return nil, fmt.Errorf("sparql: expected AS, got %s", p.peek())
		}
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		q.CountVar = v.text
	} else if p.peek().kind == tokStar {
		p.advance()
	} else {
		for p.peek().kind == tokVar {
			q.Select = append(q.Select, p.advance().text)
		}
		if len(q.Select) == 0 {
			return nil, fmt.Errorf("sparql: SELECT needs '*' or at least one variable")
		}
	}
	if !p.keyword("WHERE") {
		return nil, fmt.Errorf("sparql: expected WHERE, got %s", p.peek())
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokRBrace:
			p.advance()
			if len(q.Where) == 0 {
				return nil, fmt.Errorf("sparql: empty WHERE clause")
			}
			if p.peek().kind != tokEOF {
				return nil, fmt.Errorf("sparql: trailing input after '}': %s", p.peek())
			}
			return q, nil
		case t.kind == tokKeyword && t.text == "FILTER":
			p.advance()
			f, err := p.filter(q)
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, f)
		case t.kind == tokEOF:
			return nil, fmt.Errorf("sparql: unterminated WHERE clause")
		default:
			tp, err := p.triplePattern(q)
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, tp)
		}
	}
}

func (p *parser) triplePattern(q *Query) (TriplePattern, error) {
	s, err := p.patternTerm(q, "subject")
	if err != nil {
		return TriplePattern{}, err
	}
	pt, err := p.patternTerm(q, "predicate")
	if err != nil {
		return TriplePattern{}, err
	}
	o, err := p.patternTerm(q, "object")
	if err != nil {
		return TriplePattern{}, err
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return TriplePattern{}, err
	}
	return TriplePattern{S: s, P: pt, O: o}, nil
}

func (p *parser) patternTerm(q *Query, position string) (PatternTerm, error) {
	t := p.advance()
	switch t.kind {
	case tokVar:
		return Variable(t.text), nil
	case tokIRI:
		return Constant(rdf.NewIRI(t.text)), nil
	case tokPName:
		term, err := expandPName(q, t.text)
		if err != nil {
			return PatternTerm{}, err
		}
		return Constant(term), nil
	case tokKeyword:
		if t.text == "A" && position == "predicate" {
			return Constant(rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")), nil
		}
		return PatternTerm{}, fmt.Errorf("sparql: unexpected keyword %s in %s position", t.text, position)
	case tokString:
		lit, err := p.literalTail(q, t.text)
		if err != nil {
			return PatternTerm{}, err
		}
		return Constant(lit), nil
	default:
		return PatternTerm{}, fmt.Errorf("sparql: unexpected %s in %s position", t, position)
	}
}

// literalTail consumes an optional @lang or ^^<datatype> after a string.
func (p *parser) literalTail(q *Query, val string) (rdf.Term, error) {
	switch p.peek().kind {
	case tokLang:
		return rdf.NewLangLiteral(val, p.advance().text), nil
	case tokDTSep:
		p.advance()
		t := p.advance()
		switch t.kind {
		case tokIRI:
			return rdf.NewTypedLiteral(val, t.text), nil
		case tokPName:
			dt, err := expandPName(q, t.text)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(val, dt.Value), nil
		default:
			return rdf.Term{}, fmt.Errorf("sparql: expected datatype IRI, got %s", t)
		}
	default:
		return rdf.NewLiteral(val), nil
	}
}

func (p *parser) filter(q *Query) (Filter, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return Filter{}, err
	}
	// CONTAINS(?v, "s")  — inner form.
	if p.peek().kind == tokKeyword && p.peek().text == "CONTAINS" {
		p.advance()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return Filter{}, err
		}
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return Filter{}, err
		}
		if _, err := p.expect(tokComma, "','"); err != nil {
			return Filter{}, err
		}
		s, err := p.expect(tokString, "string literal")
		if err != nil {
			return Filter{}, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return Filter{}, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return Filter{}, err
		}
		return Filter{Var: v.text, Op: FilterContains, Value: rdf.NewLiteral(s.text)}, nil
	}
	v, err := p.expect(tokVar, "variable")
	if err != nil {
		return Filter{}, err
	}
	var op FilterOp
	switch t := p.advance(); t.kind {
	case tokEq:
		op = FilterEq
	case tokNeq:
		op = FilterNeq
	default:
		return Filter{}, fmt.Errorf("sparql: expected comparison operator, got %s", t)
	}
	var val rdf.Term
	switch t := p.advance(); t.kind {
	case tokIRI:
		val = rdf.NewIRI(t.text)
	case tokPName:
		if val, err = expandPName(q, t.text); err != nil {
			return Filter{}, err
		}
	case tokString:
		if val, err = p.literalTail(q, t.text); err != nil {
			return Filter{}, err
		}
	default:
		return Filter{}, fmt.Errorf("sparql: expected term in FILTER, got %s", t)
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Filter{}, err
	}
	return Filter{Var: v.text, Op: op, Value: val}, nil
}

func expandPName(q *Query, pname string) (rdf.Term, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return rdf.Term{}, fmt.Errorf("sparql: malformed prefixed name %q", pname)
	}
	base, ok := q.Prefixes[pname[:i]]
	if !ok {
		return rdf.Term{}, fmt.Errorf("sparql: undeclared prefix %q", pname[:i])
	}
	return rdf.NewIRI(base + pname[i+1:]), nil
}

// validate applies the structural restrictions of the supported subset.
func validate(q *Query) error {
	declared := make(map[string]bool)
	for _, tp := range q.Where {
		if !tp.S.IsVar && tp.S.Term.Kind == rdf.Literal {
			return fmt.Errorf("sparql: literal subject in %s", tp)
		}
		if !tp.P.IsVar && tp.P.Term.Kind != rdf.IRI {
			return fmt.Errorf("sparql: non-IRI bound predicate in %s", tp)
		}
		for _, t := range []PatternTerm{tp.S, tp.P, tp.O} {
			if t.IsVar {
				declared[t.Var] = true
			}
		}
	}
	for _, v := range q.Select {
		if !declared[v] {
			return fmt.Errorf("sparql: selected variable ?%s not used in WHERE", v)
		}
	}
	if q.CountVar != "" {
		if declared[q.CountVar] {
			return fmt.Errorf("sparql: COUNT target ?%s already used in WHERE", q.CountVar)
		}
		if q.Distinct {
			return fmt.Errorf("sparql: DISTINCT with COUNT(*) is unsupported")
		}
	}
	for _, f := range q.Filters {
		if !declared[f.Var] {
			return fmt.Errorf("sparql: filtered variable ?%s not used in WHERE", f.Var)
		}
		if f.Op == FilterContains && f.Value.Kind != rdf.Literal {
			return fmt.Errorf("sparql: CONTAINS needs a string literal")
		}
	}
	return nil
}
