// Package core implements the paper's contribution: the Nested TripleGroup
// Data Model and Algebra (NTGA) extended for unbound-property graph
// patterns. It provides
//
//   - TripleGroup — a subject-grouped set of (property, object) pairs,
//     the output of the grouping operator γ;
//   - AnnTG — an annotated triplegroup: a TripleGroup tagged with its
//     equivalence class (star subpattern) and per-pattern unnest state,
//     the paper's extended multi-map representation;
//   - the β group-filter σ^βγ (Definition 1) as UnbGrpFilter;
//   - the β-unnest operator μ^β (Definition 2) as BetaUnnest;
//   - the partial β-unnest operator μ^β_φm (Definition 3) as
//     PartialBetaUnnest / UnnestSlotInBucket, the latter one PinSlot per
//     in-bucket candidate — these, and the AnnTG decoder, are methods of
//     Scratch, the per-call working memory they build in (package ntgamr's
//     triplegroup joins finish μ^β_φm through one join index, which files a
//     partial triplegroup under each in-bucket candidate and calls PinSlot
//     only for a candidate a right record matches);
//   - Expand, which enumerates the variable bindings an (possibly still
//     nested) AnnTG implicitly represents — the content-equivalence side
//     of Lemma 1.
//
// These operators are pure in-memory transforms; package ntgamr lifts them
// onto MapReduce as the physical operators TG_GroupBy, TG_UnbGrpFilter,
// TG_UnbJoin and TG_OptUnbJoin.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ntga/internal/rdf"
)

// PO is one (property, object) pair of a subject triplegroup.
type PO struct {
	P, O rdf.ID
}

// TripleGroup is a set of triples sharing one subject (the γ operator's
// output granule). Triples are held as canonically sorted, de-duplicated
// (P, O) pairs.
type TripleGroup struct {
	Subject rdf.ID
	Triples []PO
}

// NewTripleGroup builds a triplegroup from pairs, sorting them by (P, O) and
// de-duplicating them (RDF set semantics) in place: pairs becomes the group's.
func NewTripleGroup(subject rdf.ID, pairs []PO) TripleGroup {
	slices.SortFunc(pairs, func(a, b PO) int {
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
	})
	return TripleGroup{Subject: subject, Triples: slices.Compact(pairs)}
}

// Props returns the distinct property IDs in the group, sorted — the
// paper's tg.props() convenience function.
func (tg TripleGroup) Props() []rdf.ID {
	var out []rdf.ID
	for i, p := range tg.Triples {
		if i == 0 || p.P != tg.Triples[i-1].P {
			out = append(out, p.P)
		}
	}
	return out
}

// Len reports the number of triples in the group.
func (tg TripleGroup) Len() int { return len(tg.Triples) }

func (tg TripleGroup) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tg(%d){", tg.Subject)
	for i, p := range tg.Triples {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "(%d,%d)", p.P, p.O)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Group is the γ (grouping) operator: it partitions triples into subject
// triplegroups. Every triple lands in exactly one group; groups are
// returned in ascending subject order.
func Group(triples []rdf.Triple) []TripleGroup {
	bySubj := make(map[rdf.ID][]PO)
	for _, t := range triples {
		bySubj[t.S] = append(bySubj[t.S], PO{P: t.P, O: t.O})
	}
	subjects := make([]rdf.ID, 0, len(bySubj))
	for s := range bySubj {
		subjects = append(subjects, s)
	}
	slices.Sort(subjects)
	out := make([]TripleGroup, 0, len(subjects))
	for _, s := range subjects {
		out = append(out, NewTripleGroup(s, bySubj[s]))
	}
	return out
}
