package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error in an N-Triples input, with the
// 1-based line number at which it occurred.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// ReadNTriples parses N-Triples from r into a new Graph. Comment lines
// (starting with '#') and blank lines are skipped. The subset supported is
// the full N-Triples grammar except IRIs containing escaped code points.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	if err := ReadNTriplesInto(r, g); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadNTriplesInto parses N-Triples from r, appending to an existing graph.
func ReadNTriplesInto(r io.Reader, g *Graph) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, p, o, err := parseTripleLine(line)
		if err != nil {
			return &ParseError{Line: lineNo, Msg: err.Error()}
		}
		g.Add(s, p, o)
	}
	return sc.Err()
}

// ParseTriple parses a single N-Triples statement (terminated by '.').
func ParseTriple(line string) (s, p, o Term, err error) {
	return parseTripleLine(strings.TrimSpace(line))
}

// ParseTermText parses a single term in N-Triples syntax, requiring the
// whole input to be consumed. It is the inverse of Term.String.
func ParseTermText(s string) (Term, error) {
	t, rest, err := parseTerm(s)
	if err != nil {
		return Term{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Term{}, fmt.Errorf("ntriples: trailing input %q after term", rest)
	}
	return t, nil
}

func parseTripleLine(line string) (s, p, o Term, err error) {
	rest := line
	if s, rest, err = parseTerm(rest); err != nil {
		return s, p, o, fmt.Errorf("subject: %w", err)
	}
	if s.Kind == Literal {
		return s, p, o, fmt.Errorf("subject must not be a literal")
	}
	if p, rest, err = parseTerm(rest); err != nil {
		return s, p, o, fmt.Errorf("predicate: %w", err)
	}
	if p.Kind != IRI {
		return s, p, o, fmt.Errorf("predicate must be an IRI")
	}
	if o, rest, err = parseTerm(rest); err != nil {
		return s, p, o, fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return s, p, o, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	return s, p, o, nil
}

// parseTerm consumes one term from the front of s and returns the remainder.
func parseTerm(s string) (Term, string, error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return Term{}, "", fmt.Errorf("unexpected end of statement")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated IRI")
		}
		return NewIRI(s[1:end]), s[end+1:], nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return Term{}, "", fmt.Errorf("malformed blank node")
		}
		end := 2
		for end < len(s) && !isWS(s[end]) {
			end++
		}
		if end == 2 {
			return Term{}, "", fmt.Errorf("empty blank node label")
		}
		return NewBlank(s[2:end]), s[end:], nil
	case '"':
		val, rest, err := parseQuoted(s)
		if err != nil {
			return Term{}, "", err
		}
		// Optional language tag or datatype.
		if strings.HasPrefix(rest, "@") {
			end := 1
			for end < len(rest) && !isWS(rest[end]) {
				end++
			}
			return NewLangLiteral(val, rest[1:end]), rest[end:], nil
		}
		if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return Term{}, "", fmt.Errorf("unterminated datatype IRI")
			}
			return NewTypedLiteral(val, rest[3:end]), rest[end+1:], nil
		}
		return NewLiteral(val), rest, nil
	default:
		return Term{}, "", fmt.Errorf("unexpected character %q", s[0])
	}
}

// parseQuoted consumes a double-quoted string with backslash escapes from
// the front of s (which must start with '"').
func parseQuoted(s string) (val, rest string, err error) {
	var sb strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return sb.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in literal")
			}
			i++
			switch s[i] {
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return "", "", fmt.Errorf("unsupported escape \\%c", s[i])
			}
		default:
			sb.WriteByte(c)
		}
		i++
	}
	return "", "", fmt.Errorf("unterminated literal")
}

func isWS(c byte) bool { return c == ' ' || c == '\t' }

// WriteNTriples serializes the graph in canonical N-Triples form, one triple
// per line, in the graph's current triple order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range g.Triples {
		line = append(g.Dict.AppendNT(line[:0], ' ', t.S, t.P, t.O), " .\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
