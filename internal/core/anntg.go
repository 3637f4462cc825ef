package core

import (
	"fmt"
	"slices"
	"strings"

	"ntga/internal/query"
	"ntga/internal/rdf"
)

// Nested marks a pattern whose matches are still implicitly represented
// (not yet unnested) in an AnnTG.
const Nested = -1

// AnnTG is an annotated triplegroup: the subject triplegroup restricted to
// the pairs relevant to one star subpattern (its equivalence class), plus
// per-pattern unnest state. It is the paper's AnnTG "extended multi-map"
// representation generalized with explicit selections:
//
//   - SlotSel[i] == Nested means unbound slot i is still implicitly
//     represented: every candidate pair is a match (the concise nested
//     form the lazy strategies preserve);
//   - SlotSel[i] == k pins slot i to Triples[k] (a "perfect" triplegroup
//     component after β-unnest);
//   - BoundSel[i] likewise pins bound pattern i, which happens only when a
//     join on that pattern's object forces a specific value.
type AnnTG struct {
	Subject  rdf.ID
	EC       int // star index (equivalence class tag)
	Triples  []PO
	BoundSel []int // len == len(star.Bound)
	SlotSel  []int // len == len(star.Slots)
}

// FullyUnnested reports whether every unbound slot has been pinned.
func (a AnnTG) FullyUnnested() bool {
	for _, s := range a.SlotSel {
		if s == Nested {
			return false
		}
	}
	return true
}

func (a AnnTG) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "AnnTG(ec=%d, s=%d)[", a.EC, a.Subject)
	for i, p := range a.Triples {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "(%d,%d)", p.P, p.O)
	}
	fmt.Fprintf(&sb, "] bsel=%v ssel=%v", a.BoundSel, a.SlotSel)
	return sb.String()
}

// BoundCandidates appends to dst the indices of pairs that can match bound
// pattern bi, honoring a pinned selection.
func (a *AnnTG) BoundCandidates(dst []int, st *query.Star, bi int) []int {
	if a.BoundSel[bi] != Nested {
		return append(dst, a.BoundSel[bi])
	}
	b := &st.Bound[bi]
	for i, p := range a.Triples {
		if p.P == b.Prop && b.Obj.Match(p.O) {
			dst = append(dst, i)
		}
	}
	return dst
}

// SlotCandidates appends to dst the indices of pairs that can match unbound
// slot si, honoring a pinned selection.
func (a *AnnTG) SlotCandidates(dst []int, st *query.Star, si int) []int {
	if a.SlotSel[si] != Nested {
		return append(dst, a.SlotSel[si])
	}
	sl := &st.Slots[si]
	for i, p := range a.Triples {
		if sl.Prop.Match(p.P) && sl.Obj.Match(p.O) {
			dst = append(dst, i)
		}
	}
	return dst
}

// UnbGrpFilter is the β group-filter σ^βγ (Definition 1) merged with the
// per-equivalence-class projection of Algorithm 2 (TG_UnbGrpFilter): given
// a subject triplegroup and the query's stars, it returns one AnnTG per
// star the group structurally matches.
//
// A group matches a star when the subject predicate holds and every
// pattern — bound or unbound — has at least one candidate pair. (Definition
// 1 checks only the bound properties; requiring slot candidates too is the
// filter-pushdown refinement discussed in §4: a group with an empty slot
// candidate set would β-unnest to nothing.)
//
// For a star with unbound slots the AnnTG keeps every relevant pair (the
// concise implicit representation); for a bound-only star it keeps only the
// bound-matching pairs (Algorithm 2, line 8).
func (s *Scratch) UnbGrpFilter(tg TripleGroup, stars []*query.Star) []AnnTG {
	s.tgs = room(s.tgs, len(stars))
	start := len(s.tgs)
	for _, st := range stars {
		if a, ok := s.FilterForStar(tg, st); ok {
			s.tgs = append(s.tgs, a)
		}
	}
	return slices.Clip(s.tgs[start:])
}

// FilterForStar applies σ^βγ for a single star over a fresh Scratch.
func FilterForStar(tg TripleGroup, st *query.Star) (AnnTG, bool) {
	return new(Scratch).FilterForStar(tg, st)
}

// FilterForStar applies σ^βγ for a single star: one pass keeps the pairs
// that match any pattern and notes which patterns found a candidate.
func (s *Scratch) FilterForStar(tg TripleGroup, st *query.Star) (AnnTG, bool) {
	if !st.Subj.Match(tg.Subject) {
		return AnnTG{}, false
	}
	nb := len(st.Bound)
	matched := bitmap(&s.keep, st.NPatterns())
	s.pos = room(s.pos, len(tg.Triples))
	start := len(s.pos)
	for _, p := range tg.Triples {
		relevant := false
		for bi := range st.Bound {
			if b := &st.Bound[bi]; p.P == b.Prop && b.Obj.Match(p.O) {
				matched[bi], relevant = true, true
			}
		}
		for si := range st.Slots {
			if sl := &st.Slots[si]; sl.Prop.Match(p.P) && sl.Obj.Match(p.O) {
				matched[nb+si], relevant = true, true
			}
		}
		if relevant {
			s.pos = append(s.pos, p)
		}
	}
	// Structure-based validation: every pattern needs a candidate.
	if slices.Contains(matched, false) {
		s.pos = s.pos[:start]
		return AnnTG{}, false
	}
	return AnnTG{
		Subject:  tg.Subject,
		EC:       st.Index,
		Triples:  slices.Clip(s.pos[start:]),
		BoundSel: s.nested(nb),
		SlotSel:  s.nested(len(st.Slots)),
	}, true
}

// nested returns n Nested selections.
func (s *Scratch) nested(n int) []int {
	s.ints = room(s.ints, n)
	start := len(s.ints)
	for ; n > 0; n-- {
		s.ints = append(s.ints, Nested)
	}
	return slices.Clip(s.ints[start:])
}

// pinned returns a copy of sel with entry i set to v.
func (s *Scratch) pinned(sel []int, i, v int) []int {
	s.ints = room(s.ints, len(sel))
	start := len(s.ints)
	s.ints = append(s.ints, sel...)
	out := slices.Clip(s.ints[start:])
	out[i] = v
	return out
}

// BetaUnnest is the β-unnest operator μ^β (Definition 2) generalized to
// multiple unbound slots: it expands an AnnTG into the set of "perfect"
// triplegroups, one per combination of slot candidates, each containing the
// (still nested) bound component plus the chosen unbound triples. Pinned
// slots keep their selection.
func (s *Scratch) BetaUnnest(st *query.Star, a AnnTG) []AnnTG {
	combos := []AnnTG{a}
	for si := range st.Slots {
		if a.SlotSel[si] != Nested {
			continue
		}
		s.idx = a.SlotCandidates(s.idx[:0], st, si)
		next := make([]AnnTG, 0, len(combos)*len(s.idx))
		for _, c := range combos {
			for _, idx := range s.idx {
				c.SlotSel = s.pinned(c.SlotSel, si, idx)
				next = append(next, c)
			}
		}
		combos = next
	}
	// Compact each perfect triplegroup: drop pairs that are neither
	// bound-relevant nor selected (this is where the footprint of an eager
	// unnest materializes).
	for i := range combos {
		combos[i] = s.Compact(st, combos[i])
	}
	return combos
}

// Compact rewrites an AnnTG to keep only pairs still needed: pairs matching
// some non-pinned pattern, and pinned selections. Selection indices are
// remapped to the new pair slice.
func (s *Scratch) Compact(st *query.Star, a AnnTG) AnnTG {
	return s.project(a, s.needed(st, a, -1))
}

// needed marks, in s.keep, the pairs of a that some pattern other than slot
// skip still needs: a pinned pattern its selection, a nested one every
// candidate.
func (s *Scratch) needed(st *query.Star, a AnnTG, skip int) []bool {
	keep := bitmap(&s.keep, len(a.Triples))
	for bi := range st.Bound {
		if a.BoundSel[bi] != Nested {
			keep[a.BoundSel[bi]] = true
			continue
		}
		b := &st.Bound[bi]
		for i, p := range a.Triples {
			if p.P == b.Prop && b.Obj.Match(p.O) {
				keep[i] = true
			}
		}
	}
	for si := range st.Slots {
		if si == skip {
			continue
		}
		if a.SlotSel[si] != Nested {
			keep[a.SlotSel[si]] = true
			continue
		}
		sl := &st.Slots[si]
		for i, p := range a.Triples {
			if sl.Prop.Match(p.P) && sl.Obj.Match(p.O) {
				keep[i] = true
			}
		}
	}
	return keep
}

// project copies the kept pairs of a and its selection vectors, each pinned
// index remapped to its pair's new position (the count of kept pairs before it).
func (s *Scratch) project(a AnnTG, keep []bool) AnnTG {
	s.pos = room(s.pos, len(keep))
	start := len(s.pos)
	for i, k := range keep {
		if k {
			s.pos = append(s.pos, a.Triples[i])
		}
	}
	remap := func(sel []int) []int {
		s.ints = room(s.ints, len(sel))
		from := len(s.ints)
		for _, v := range sel {
			if v != Nested {
				kept := keep[:v]
				v = 0
				for _, k := range kept {
					if k {
						v++
					}
				}
			}
			s.ints = append(s.ints, v)
		}
		return slices.Clip(s.ints[from:])
	}
	return AnnTG{Subject: a.Subject, EC: a.EC, Triples: slices.Clip(s.pos[start:]),
		BoundSel: remap(a.BoundSel), SlotSel: remap(a.SlotSel)}
}

// PinBound produces one AnnTG per candidate of bound pattern bi, each with
// the pattern pinned — the split needed before a join on a (possibly
// multi-valued) bound property's object.
func (s *Scratch) PinBound(st *query.Star, a AnnTG, bi int) []AnnTG {
	s.idx = a.BoundCandidates(s.idx[:0], st, bi)
	s.tgs = room(s.tgs, len(s.idx))
	start := len(s.tgs)
	for _, idx := range s.idx {
		c := a
		c.BoundSel = s.pinned(a.BoundSel, bi, idx)
		s.tgs = append(s.tgs, s.Compact(st, c))
	}
	return slices.Clip(s.tgs[start:])
}

// Phi is the partition function φ_m of Definition 3: it assigns a join-key
// ID to one of m buckets. It must be deterministic across map and reduce
// sides, which the reducer exploits to re-derive each partial triplegroup's
// candidate subset without shipping extra state.
func Phi(o rdf.ID, m int) int {
	// Knuth multiplicative hashing; cheap and well-spread for dense IDs.
	return int((uint64(o) * 2654435761) % uint64(m))
}

// PartialBetaUnnest is the partial β-unnest operator μ^β_φm (Definition 3)
// applied to unbound slot si: slot candidates are partitioned into m
// buckets by Phi on their object (the join key); for every non-empty bucket,
// in ascending bucket order, one AnnTG is produced carrying the bound
// component, all pairs relevant to other patterns, and the bucket's slot
// candidates. The slot remains Nested; the bucket id is returned alongside
// so the caller can key the shuffle by it.
func (s *Scratch) PartialBetaUnnest(st *query.Star, a AnnTG, si, m int) []PartialTG {
	return s.PartialBetaUnnestBy(st, a, si, m, Phi)
}

// PartialBetaUnnestBy is PartialBetaUnnest with the partition function phi
// in place of Phi — the bucketed layout routes by its own placement hash.
// phi(o, m) must lie in [0, m); it is called once per slot candidate.
func (s *Scratch) PartialBetaUnnestBy(st *query.Star, a AnnTG, si, m int, phi func(rdf.ID, int) int) []PartialTG {
	s.idx = a.SlotCandidates(s.idx[:0], st, si)
	s.bkt = slices.Grow(s.bkt[:0], len(s.idx))
	for _, ci := range s.idx {
		s.bkt = append(s.bkt, phi(a.Triples[ci].O, m))
	}
	others := s.needed(st, a, si)
	s.parts = room(s.parts, len(s.idx))
	start := len(s.parts)
	for last := -1; ; {
		bucket := m // the smallest non-empty bucket above last
		for _, b := range s.bkt {
			if b > last && b < bucket {
				bucket = b
			}
		}
		if bucket == m {
			return slices.Clip(s.parts[start:])
		}
		s.keep2 = append(s.keep2[:0], others...)
		for k, ci := range s.idx {
			if s.bkt[k] == bucket {
				s.keep2[ci] = true
			}
		}
		s.parts = append(s.parts, PartialTG{Bucket: bucket, TG: s.project(a, s.keep2)})
		last = bucket
	}
}

// PartialTG pairs a partially β-unnested AnnTG with its φ_m bucket.
type PartialTG struct {
	Bucket int
	TG     AnnTG
}

// UnnestSlotInBucket finishes a partial β-unnest: it expands slot si of a
// partial AnnTG, selecting only candidates whose join key falls in bucket b
// under φ_m — exactly the candidates the map side placed in this partition
// — and compacts each result. Other slots stay as they are. With m == 0
// every candidate is selected. The join reducer builds the same members one
// at a time, with PinSlot, and only those a right record matches.
func (s *Scratch) UnnestSlotInBucket(st *query.Star, a AnnTG, si, m, b int) []AnnTG {
	s.idx = a.SlotCandidates(s.idx[:0], st, si)
	s.tgs = room(s.tgs, len(s.idx))
	start := len(s.tgs)
	for _, idx := range s.idx {
		if m > 0 && a.SlotSel[si] == Nested && Phi(a.Triples[idx].O, m) != b {
			continue
		}
		s.tgs = append(s.tgs, s.PinSlot(st, a, si, idx))
	}
	return slices.Clip(s.tgs[start:])
}

// PinSlot β-unnests slot si of a to the single candidate pair k and compacts
// the result: one member of UnnestSlot's output, built alone — both
// triplegroup joins pin a partial left this way only once a right record
// matches it.
func (s *Scratch) PinSlot(st *query.Star, a AnnTG, si, k int) AnnTG {
	a.SlotSel = s.pinned(a.SlotSel, si, k)
	return s.Compact(st, a)
}

// UnnestSlot expands a single slot fully (the map-side full β-unnest used
// by TG_UnbJoin).
func (s *Scratch) UnnestSlot(st *query.Star, a AnnTG, si int) []AnnTG {
	return s.UnnestSlotInBucket(st, a, si, 0, 0)
}
