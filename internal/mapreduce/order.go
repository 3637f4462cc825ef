package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ntga/internal/codec"
)

// The shuffle order is (key, value) in bytes.Compare order. The sort buffer
// and the reduce-side merge both decide it first on a one-word key prefix
// (keyPrefix) held in memory beside the pairs, and read the pairs' bytes only
// when two prefixes tie. Keys are short uvarint ID tuples, so the prefix alone orders
// nearly every pair of distinct keys, and a tie between two short keys means
// they are equal, so only the values are read. The prefix never reaches a
// spill run or the wire.

// keyPrefix packs the first seven bytes of b, big-endian and zero-padded
// past its end, above a length byte: len(b) when b is shorter than 8 bytes,
// 8 otherwise. Prefixes keep bytes.Compare's order one way:
// keyPrefix(a) < keyPrefix(b) implies a < b. At the first of the seven bytes
// where two padded prefixes differ, either both slices have a byte and those
// bytes differ the same way, or the lower slice has ended there and is a
// proper prefix of the other; if the seven bytes agree, the lower length
// byte belongs to a slice of at most 7 bytes, all equal to the other's
// first ones. A slice shorter than 8 bytes is encoded exactly, so equal
// prefixes with a length byte below 8 mean equal slices ("ab" and "ab\x00"
// differ in it). Longer slices that agree on their first seven bytes tie,
// and only they need their bytes compared.
func keyPrefix(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)&^0xff | 8
	}
	var p uint64
	for i, c := range b {
		p |= uint64(c) << (56 - 8*i)
	}
	return p | uint64(len(b))
}

// compareKV is the shuffle order in full: key, then value.
func compareKV(a, b *KV) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return bytes.Compare(a.Value, b.Value)
}

// compareTied is compareKV for two pairs whose keys share the given prefix:
// when it encodes a whole key (length byte below 8) the keys are equal and
// only the values are read.
func compareTied(prefix uint64, x, y *KV) int {
	if byte(prefix) < 8 {
		return bytes.Compare(x.Value, y.Value)
	}
	return compareKV(x, y)
}

// pairEntry is one buffered pair's place in the sort buffer: its key prefix,
// its reduce partition, and where its key and value lie in the buffer, the
// value right after the key. It holds no pointer, so the sort moves 24 plain
// bytes with no write barrier.
type pairEntry struct {
	prefix     uint64
	off        uint32 // where the key starts in sortBuffer.buf
	klen, vlen uint32
	part       uint32
}

// maxSortBuffer is the most bytes a sort buffer can hold: entry offsets are
// 32-bit, as Hadoop's MapOutputBuffer's are.
const maxSortBuffer = math.MaxUint32

// sortBuffer is a map attempt's buffered output in Hadoop's MapOutputBuffer
// layout: every pair's key and value back to back in one byte buffer, and
// beside them one pointer-free pairEntry per pair. sort orders the entries
// alone, by (partition, key, value): an LSD radix sort on the key prefixes
// and then the partitions, and a comparison sort of each run of tied
// prefixes. The arrays are scratch kept from sort to sort, so once they have
// grown to the largest buffer, adding and sorting allocate nothing. A
// sortBuffer is not safe for concurrent use.
type sortBuffer struct {
	buf       []byte
	ents, tmp []pairEntry
	// framed is the length of the buffered pairs as the shuffle frames them
	// (appendPair): a sealed slab's exact size, a spill run's unless a
	// combiner folds pairs away.
	framed int
}

// appendPair frames a pair: the key, then the value, each behind its uvarint
// length — the framing of spill runs, sealed segments and the wire alike.
func appendPair(dst, key, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// add copies the pair into the buffer under reduce partition part.
func (s *sortBuffer) add(part int, key, value []byte) error {
	off := len(s.buf)
	if uint64(off)+uint64(len(key))+uint64(len(value)) > maxSortBuffer {
		return fmt.Errorf("mapreduce: map task buffers more than %d bytes; bound it with SortBufferBytes", uint64(maxSortBuffer))
	}
	s.buf = append(append(s.buf, key...), value...)
	s.framed += codec.UvarintLen(uint64(len(key))) + codec.UvarintLen(uint64(len(value))) + len(key) + len(value)
	s.ents = append(s.ents, pairEntry{
		prefix: keyPrefix(key), off: uint32(off),
		klen: uint32(len(key)), vlen: uint32(len(value)), part: uint32(part),
	})
	return nil
}

// pair returns the entry's key and value, each capped at its own length.
func (s *sortBuffer) pair(e *pairEntry) KV {
	kend := e.off + e.klen
	vend := kend + e.vlen
	return KV{s.buf[e.off:kend:kend], s.buf[kend:vend:vend]}
}

// reset empties the buffer, keeping its arrays.
func (s *sortBuffer) reset() {
	s.buf, s.ents, s.framed = s.buf[:0], s.ents[:0], 0
}

// sort orders the entries by (partition, key, value).
func (s *sortBuffer) sort() {
	n := len(s.ents)
	if n < 2 {
		return
	}
	ents, tmp := s.ents, slices.Grow(s.tmp[:0], n)[:n]
	// The bits that are not the same in every entry, of the key prefixes and
	// of the partitions.
	var differ, partDiffer uint64
	first, firstPart := ents[0].prefix, ents[0].part
	for i := range ents {
		differ |= ents[i].prefix ^ first
		partDiffer |= uint64(ents[i].part ^ firstPart)
	}
	// One stable counting pass per byte, least significant first — the key
	// prefix's, then the partition's as the most significant digits —
	// skipping the bytes every entry shares: a short uvarint key leaves most
	// prefix bytes zero, and a partition needs one byte below 256 reducers.
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(differ>>shift) != 0 {
			countingPass(ents, tmp, false, shift)
			ents, tmp = tmp, ents
		}
	}
	for shift := uint(0); shift < 32; shift += 8 {
		if byte(partDiffer>>shift) != 0 {
			countingPass(ents, tmp, true, shift)
			ents, tmp = tmp, ents
		}
	}
	// A run of equal short-key prefixes holds one key, so only the values
	// are compared (compareTied).
	buf := s.buf
	byValue := func(a, b pairEntry) int {
		av, bv := a.off+a.klen, b.off+b.klen
		return bytes.Compare(buf[av:av+a.vlen], buf[bv:bv+b.vlen])
	}
	byPair := func(a, b pairEntry) int {
		x, y := s.pair(&a), s.pair(&b)
		return compareKV(&x, &y)
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && ents[j].prefix == ents[i].prefix && ents[j].part == ents[i].part {
			j++
		}
		if j-i > 1 {
			if byte(ents[i].prefix) < 8 {
				slices.SortFunc(ents[i:j], byValue)
			} else {
				slices.SortFunc(ents[i:j], byPair)
			}
		}
		i = j
	}
	s.ents, s.tmp = ents, tmp
}

// countingPass stably moves every entry of src to dst in the order of one
// byte, at shift, of its key prefix or, with part set, of its partition.
func countingPass(src, dst []pairEntry, part bool, shift uint) {
	digit := func(e *pairEntry) byte {
		if part {
			return byte(e.part >> shift)
		}
		return byte(e.prefix >> shift)
	}
	var at [256]int
	for i := range src {
		at[digit(&src[i])]++
	}
	sum := 0
	for d, c := range at {
		at[d], sum = sum, sum+c
	}
	for i := range src {
		d := digit(&src[i])
		dst[at[d]] = src[i]
		at[d]++
	}
}

// partEnd returns the end of the run of sorted entries, starting at i, that
// belong to i's partition.
func partEnd(ents []pairEntry, i int) int {
	j := i
	for j < len(ents) && ents[j].part == ents[i].part {
		j++
	}
	return j
}
