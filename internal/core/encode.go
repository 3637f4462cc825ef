package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ntga/internal/codec"
)

// appendAnnTG appends the binary encoding of an AnnTG: subject, equivalence
// class, (P,O) pairs, and the two selection vectors (Nested encoded as 0,
// index i as i+1), every number a uvarint as in package codec.
func appendAnnTG(dst []byte, a AnnTG) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Subject))
	dst = binary.AppendUvarint(dst, uint64(a.EC))
	dst = binary.AppendUvarint(dst, uint64(len(a.Triples)))
	for _, p := range a.Triples {
		dst = binary.AppendUvarint(dst, uint64(p.P))
		dst = binary.AppendUvarint(dst, uint64(p.O))
	}
	for _, sel := range [2][]int{a.BoundSel, a.SlotSel} {
		dst = binary.AppendUvarint(dst, uint64(len(sel)))
		for _, s := range sel {
			dst = binary.AppendUvarint(dst, uint64(s+1)) // Nested (-1) -> 0
		}
	}
	return dst
}

// ReadAnnTG decodes one AnnTG into s.
func (s *Scratch) ReadAnnTG(r *codec.Reader) (AnnTG, error) {
	var a AnnTG
	var err error
	if a.Subject, err = r.ID(); err != nil {
		return a, err
	}
	ec, err := r.Uvarint()
	if err != nil {
		return a, err
	}
	a.EC = int(ec)
	n, err := r.Uvarint()
	if err != nil {
		return a, err
	}
	if n > uint64(r.Remaining()) {
		return a, codec.ErrCorrupt
	}
	s.pos = room(s.pos, int(n))
	start := len(s.pos)
	for ; n > 0; n-- {
		var p PO
		if p.P, err = r.ID(); err != nil {
			return a, err
		}
		if p.O, err = r.ID(); err != nil {
			return a, err
		}
		s.pos = append(s.pos, p)
	}
	a.Triples = slices.Clip(s.pos[start:])
	if a.BoundSel, err = s.readSel(r, len(a.Triples)); err != nil {
		return a, err
	}
	if a.SlotSel, err = s.readSel(r, len(a.Triples)); err != nil {
		return a, err
	}
	return a, nil
}

func (s *Scratch) readSel(r *codec.Reader, nPairs int) ([]int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())+1 {
		return nil, codec.ErrCorrupt
	}
	s.ints = room(s.ints, int(n))
	start := len(s.ints)
	for ; n > 0; n-- {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		sel := int(v) - 1
		if sel < Nested || sel >= nPairs {
			return nil, fmt.Errorf("%w: selection %d out of range (pairs %d)", codec.ErrCorrupt, sel, nPairs)
		}
		s.ints = append(s.ints, sel)
	}
	return slices.Clip(s.ints[start:]), nil
}

// EncodeAnnTG encodes a standalone AnnTG record.
func EncodeAnnTG(a AnnTG) []byte {
	return appendAnnTG(make([]byte, 0, EncodedSize(a)), a)
}

// DecodeAnnTG decodes a standalone AnnTG record.
func DecodeAnnTG(p []byte) (AnnTG, error) {
	r := codec.NewReader(p)
	a, err := new(Scratch).ReadAnnTG(r)
	if err != nil {
		return a, err
	}
	if r.Remaining() != 0 {
		return a, fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, r.Remaining())
	}
	return a, nil
}

// EncodeJoined encodes a joined result: an ordered list of star components.
func EncodeJoined(comps []AnnTG) []byte { return AppendJoined(nil, comps) }

// AppendJoined appends the encoding of a joined result to dst, growing it at
// most once.
func AppendJoined(dst []byte, comps []AnnTG) []byte {
	dst = binary.AppendUvarint(slices.Grow(dst, JoinedSize(comps)), uint64(len(comps)))
	for _, c := range comps {
		dst = appendAnnTG(dst, c)
	}
	return dst
}

// JoinedSize returns the byte size of a joined result's encoding
// (AppendJoined) without materializing it.
func JoinedSize(comps []AnnTG) int {
	size := codec.UvarintLen(uint64(len(comps)))
	for _, c := range comps {
		size += EncodedSize(c)
	}
	return size
}

// DecodeJoined decodes a joined result record into s.
func (s *Scratch) DecodeJoined(p []byte) ([]AnnTG, error) {
	r := codec.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining())+1 {
		return nil, codec.ErrCorrupt
	}
	s.tgs = room(s.tgs, int(n))
	start := len(s.tgs)
	for ; n > 0; n-- {
		a, err := s.ReadAnnTG(r)
		if err != nil {
			return nil, err
		}
		s.tgs = append(s.tgs, a)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", codec.ErrCorrupt, r.Remaining())
	}
	return slices.Clip(s.tgs[start:]), nil
}

// EncodedSize returns the byte size of an AnnTG's encoding without
// materializing it — used to presize encodes and by the redundancy statistics.
func EncodedSize(a AnnTG) int {
	n := codec.UvarintLen(uint64(a.Subject)) + codec.UvarintLen(uint64(a.EC)) + codec.UvarintLen(uint64(len(a.Triples)))
	for _, p := range a.Triples {
		n += codec.UvarintLen(uint64(p.P)) + codec.UvarintLen(uint64(p.O))
	}
	for _, sel := range [2][]int{a.BoundSel, a.SlotSel} {
		n += codec.UvarintLen(uint64(len(sel)))
		for _, s := range sel {
			n += codec.UvarintLen(uint64(s + 1))
		}
	}
	return n
}
