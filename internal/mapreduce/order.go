package mapreduce

import (
	"bytes"
	"encoding/binary"
	"slices"
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

// sortEntry is one pair's place in a sort: its key prefix and its index in
// the segment being sorted. It holds no pointer, so the sort moves 16 plain
// bytes with no write barrier where it would move a 48-byte KV.
type sortEntry struct {
	key uint64
	idx int
}

// kvSorter sorts segments into shuffle order through a pointer-free entry
// array: an LSD radix sort on the key prefixes, then a comparison sort of
// each run of tied key prefixes. Its arrays are scratch kept from sort to
// sort, so once they have grown to the largest segment a sort allocates
// nothing. A kvSorter is not safe for concurrent use.
type kvSorter struct {
	ents, tmp []sortEntry
}

// sort orders kvs by (key, value).
func (s *kvSorter) sort(kvs []KV) {
	n := len(kvs)
	if n < 2 {
		return
	}
	ents, tmp := s.ents[:0], slices.Grow(s.tmp[:0], n)[:n]
	var differ uint64 // the key-prefix bits that are not the same in every entry
	first := keyPrefix(kvs[0].Key)
	for i := range kvs {
		p := keyPrefix(kvs[i].Key)
		differ |= p ^ first
		ents = append(ents, sortEntry{p, i})
	}
	// One stable counting pass per key-prefix byte, least significant first,
	// skipping the bytes every key shares: a short uvarint key leaves most
	// prefix bytes zero.
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, e := range ents {
			at[byte(e.key>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, e := range ents {
			d := byte(e.key >> shift)
			tmp[at[d]] = e
			at[d]++
		}
		ents, tmp = tmp, ents
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && ents[j].key == ents[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ents[i:j], func(a, b sortEntry) int {
				return compareTied(a.key, &kvs[a.idx], &kvs[b.idx])
			})
		}
		i = j
	}
	permute(kvs, ents)
	s.ents, s.tmp = ents, tmp
}

// permute rearranges kvs in place so that position i holds the pair
// ents[i].idx named, moving each pair once by following the permutation's
// cycles. It consumes the entries' indexes.
func permute(kvs []KV, ents []sortEntry) {
	for i := range ents {
		if ents[i].idx == i {
			continue
		}
		first, j := kvs[i], i
		for {
			k := ents[j].idx
			ents[j].idx = j
			if k == i {
				kvs[j] = first
				break
			}
			kvs[j] = kvs[k]
			j = k
		}
	}
}
