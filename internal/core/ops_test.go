package core

import "ntga/internal/query"

// The Scratch operators as plain functions over a fresh Scratch, for tests
// that apply one operator to one value and keep the result.

func UnbGrpFilter(tg TripleGroup, stars []*query.Star) []AnnTG {
	return new(Scratch).UnbGrpFilter(tg, stars)
}

func BetaUnnest(st *query.Star, a AnnTG) []AnnTG { return new(Scratch).BetaUnnest(st, a) }

func Compact(st *query.Star, a AnnTG) AnnTG { return new(Scratch).Compact(st, a) }

func PinBound(st *query.Star, a AnnTG, bi int) []AnnTG { return new(Scratch).PinBound(st, a, bi) }

func PartialBetaUnnest(st *query.Star, a AnnTG, si, m int) []PartialTG {
	return new(Scratch).PartialBetaUnnest(st, a, si, m)
}

func UnnestSlotInBucket(st *query.Star, a AnnTG, si, m, b int) []AnnTG {
	return new(Scratch).UnnestSlotInBucket(st, a, si, m, b)
}

func UnnestSlot(st *query.Star, a AnnTG, si int) []AnnTG { return new(Scratch).UnnestSlot(st, a, si) }

func DecodeJoined(p []byte) ([]AnnTG, error) { return new(Scratch).DecodeJoined(p) }

func nestedSel(n int) []int { return new(Scratch).nested(n) }

// raceEnabled is set by race_test.go: allocation ceilings mean nothing under
// the race detector, whose instrumentation allocates.
var raceEnabled bool
