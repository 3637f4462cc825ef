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
// map-only join rewrite routes records by Bucket(joinValue, n).
func Bucket(v uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}

// Hasher accumulates formatted writes into one fnv64a state — the streaming
// form Sum cannot express (e.g. content-hashing a triple relation).
type Hasher struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

// New returns a fresh Hasher.
func New() *Hasher { return &Hasher{h: fnv.New64a()} }

// Resume returns a Hasher whose state continues from a previously observed
// Sum64 value. fnv64a's running state *is* its current sum, so
// Resume(h.Sum64()) extends the exact stream h was hashing — this is what
// lets the versioned dataset manifest persist one 64-bit running hash and
// extend it per ingested delta instead of rehashing the whole relation.
func Resume(sum uint64) *Hasher {
	return &Hasher{h: &resumed{state: sum}}
}

// fnv64aPrime is FNV-1a's 64-bit multiplication prime (matching hash/fnv).
const fnv64aPrime = 1099511628211

// resumed is an fnv64a state seeded from an arbitrary prior sum.
type resumed struct{ state uint64 }

func (r *resumed) Write(p []byte) (int, error) {
	s := r.state
	for _, b := range p {
		s ^= uint64(b)
		s *= fnv64aPrime
	}
	r.state = s
	return len(p), nil
}

func (r *resumed) Sum64() uint64 { return r.state }

// Addf feeds fmt.Sprintf(format, args...) into the hash.
func (h *Hasher) Addf(format string, args ...any) {
	fmt.Fprintf(h.h, format, args...)
}

// Sum64 returns the current hash value.
func (h *Hasher) Sum64() uint64 { return h.h.Sum64() }

// Hex returns the current hash as the fixed-width form dataset versions
// take ("%016x").
func (h *Hasher) Hex() string { return fmt.Sprintf("%016x", h.Sum64()) }
