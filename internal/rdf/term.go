// Package rdf provides the core RDF data model used throughout the system:
// terms (IRIs, literals, blank nodes), triples, dictionary encoding of terms
// to dense integer IDs, and an N-Triples reader/writer.
//
// All higher layers (the MapReduce engines, the TripleGroup algebra, the
// benchmark harness) operate on dictionary-encoded triples for compactness;
// the Dict maps back to lexical form only at result-presentation time.
package rdf

import (
	"fmt"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

// The three RDF term kinds.
const (
	IRI TermKind = iota
	Literal
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Value holds the lexical form without
// serialization syntax: the IRI string for IRIs (no angle brackets), the
// label for blank nodes (no "_:" prefix), and the literal value for
// literals. Literals may carry a language tag or a datatype IRI (at most
// one of the two, per RDF 1.1).
type Term struct {
	Kind     TermKind
	Value    string
	Lang     string // non-empty only for language-tagged literals
	Datatype string // non-empty only for typed literals
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(v, lang string) Term { return Term{Kind: Literal, Value: v, Lang: lang} }

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(v, datatype string) Term {
	return Term{Kind: Literal, Value: v, Datatype: datatype}
}

// NewBlank returns a blank-node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [128]byte
	return string(t.AppendNT(buf[:0]))
}

// AppendNT appends the term's N-Triples form to dst and returns the extended
// buffer. It is the one N-Triples renderer: String, Dict.AppendNT, result
// rows and WriteNTriples all go through it.
func (t Term) AppendNT(dst []byte) []byte { return t.appendNT(dst) }

// appendNT is AppendNT through a pointer, so the dictionary renders its
// stored terms without copying them.
func (t *Term) appendNT(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case Blank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case Literal:
		dst = append(dst, '"')
		dst = appendEscaped(dst, t.Value)
		dst = append(dst, '"')
		if t.Lang != "" {
			dst = append(dst, '@')
			dst = append(dst, t.Lang...)
		} else if t.Datatype != "" {
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	default:
		return fmt.Appendf(dst, "?!term(%d,%q)", t.Kind, t.Value)
	}
}

// ntLen is len(t.AppendNT(nil)), computed without rendering.
func (t *Term) ntLen() int {
	switch t.Kind {
	case IRI, Blank:
		return 2 + len(t.Value)
	case Literal:
		n := 2 + escapedLen(t.Value)
		if t.Lang != "" {
			n += 1 + len(t.Lang)
		} else if t.Datatype != "" {
			n += 4 + len(t.Datatype)
		}
		return n
	default:
		return len(t.appendNT(nil))
	}
}

// Key returns a canonical string that uniquely identifies the term; it is
// used as the dictionary key. It is cheaper than String for literals that
// need no escaping and is injective across kinds.
func (t Term) Key() string { return string(t.appendKey(nil)) }

// appendKey appends Key's bytes to b.
func (t Term) appendKey(b []byte) []byte {
	switch t.Kind {
	case IRI:
		return append(append(b, 'i'), t.Value...)
	case Blank:
		return append(append(b, 'b'), t.Value...)
	default:
		if t.Lang != "" {
			return append(append(append(append(b, 'l'), t.Lang...), 0), t.Value...)
		}
		if t.Datatype != "" {
			return append(append(append(append(b, 't'), t.Datatype...), 0), t.Value...)
		}
		return append(append(b, 'p'), t.Value...)
	}
}

// escaped marks the bytes a literal's N-Triples form escapes.
var escaped = [256]bool{'"': true, '\\': true, '\n': true, '\r': true, '\t': true}

// needsEscape reports whether s holds a byte that escaped marks.
func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if escaped[s[i]] {
			return true
		}
	}
	return false
}

// appendEscaped appends s with the N-Triples string escapes applied. An
// escaped literal is re-encoded rune by rune, so an invalid UTF-8 byte in it
// becomes U+FFFD; escapedLen counts the same way.
func appendEscaped(dst []byte, s string) []byte {
	if !needsEscape(s) {
		return append(dst, s...)
	}
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// escapedLen is len(appendEscaped(nil, s)).
func escapedLen(s string) int {
	if !needsEscape(s) {
		return len(s)
	}
	n := 0
	for _, r := range s {
		if r < utf8.RuneSelf && escaped[r] {
			n += 2
		} else {
			n += utf8.RuneLen(r)
		}
	}
	return n
}
