// Package hash64 is the single fnv64a identity hash the repository draws
// from. Seeded chaos injection (task faults, network faults), the dataset
// content-hash version, and the partitioned-relation bucket assignment all
// need the same property — a cheap, deterministic, platform-independent map
// from a formatted identity to a 64-bit value — and historically each grew
// its own copy of the same four lines. Consolidating them here keeps the
// draws byte-exact (the formats and moduli live at the call sites, pinned by
// tests) while guaranteeing that the physical data layout and the fault
// model can never drift onto different generators.
package hash64

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// Sum returns the fnv64a hash of fmt.Sprintf(format, args...) without
// materializing the string (the hash consumes the formatter's writes).
func Sum(format string, args ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return h.Sum64()
}

// Mod returns Sum(format, args...) % mod. Callers keep their own
// floating-point arithmetic on the result — the historical draw shapes
// (x%100000/100000 for chaos, x%10000 < rate*10000 for injected task
// failures) must not be algebraically rearranged, or borderline draws
// could flip.
func Mod(mod uint64, format string, args ...any) uint64 {
	return Sum(format, args...) % mod
}

// Bucket assigns a dictionary ID (or any 64-bit key) to one of n buckets by
// hashing its 8 little-endian bytes. This is the partitioned layout's
// placement function: the loader writes triple t to Bucket(t.S, n), and the
// map-only join rewrite routes records by Bucket(joinValue, n). The FNV-1a
// loop is inlined (as mapreduce.HashPartitioner's is) so no hasher is
// allocated or called through an interface per key.
func Bucket(v uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(fnv64aOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnv64aPrime
	}
	return int(h % uint64(n))
}

// Hasher accumulates an fnv64a stream — the streaming form Sum cannot
// express (e.g. content-hashing a triple relation). Its state is fnv64a's
// running sum, updated in place, so feeding it allocates nothing.
type Hasher struct {
	state uint64
}

// New returns a fresh Hasher.
func New() *Hasher { return &Hasher{state: fnv64aOffset} }

// Resume returns a Hasher whose state continues from a previously observed
// Sum64 value. fnv64a's running state *is* its current sum, so
// Resume(h.Sum64()) extends the exact stream h was hashing — this is what
// lets the versioned dataset manifest persist one 64-bit running hash and
// extend it per ingested delta instead of rehashing the whole relation.
func Resume(sum uint64) *Hasher { return &Hasher{state: sum} }

// FNV-1a's 64-bit offset basis and multiplication prime (matching hash/fnv).
const (
	fnv64aOffset = 14695981039346656037
	fnv64aPrime  = 1099511628211
)

func (h *Hasher) write(p []byte) {
	s := h.state
	for _, b := range p {
		s ^= uint64(b)
		s *= fnv64aPrime
	}
	h.state = s
}

// AddTriple feeds one triple of IDs in the form dataset versions and delta
// block hashes hash it: fmt's "%d,%d,%d;".
func (h *Hasher) AddTriple(s, p, o uint64) {
	var buf [3*20 + 3]byte
	b := append(strconv.AppendUint(buf[:0], s, 10), ',')
	b = append(strconv.AppendUint(b, p, 10), ',')
	b = append(strconv.AppendUint(b, o, 10), ';')
	h.write(b)
}

// Sum64 returns the current hash value.
func (h *Hasher) Sum64() uint64 { return h.state }

// Hex returns the current hash as the fixed-width form dataset versions
// take ("%016x").
func (h *Hasher) Hex() string { return fmt.Sprintf("%016x", h.Sum64()) }
