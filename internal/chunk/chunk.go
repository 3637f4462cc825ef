// Package chunk is the one growth policy of the chunked slabs that copy many
// small values into few allocations: the map-side emitter's key/value pairs,
// the DFS writer's records and a decoded result's rows. A full chunk is left
// to the values that point into it and a larger one is started, so growth
// never copies a value.
package chunk

// Min and Max bound the capacity, in elements, of a new chunk. Chunks start
// at Min, so a task that stores little allocates little, and stop doubling at
// Max, so the unused tail of the last chunk stays small.
const (
	Min = 1 << 10
	Max = 64 << 10
)

// MaxPooled bounds the bytes one pooled per-attempt working set may keep
// while it waits in its pool for the next attempt: the map side's sort
// scratch, a whole-file task's key-run buffers, a join index and an operator
// Scratch. A pool hands one object to each attempt running at once, and
// sync.Pool frees what no attempt takes back within two garbage
// collections, so the bound only stops one outsized attempt from pinning
// its arrays until then; under it, a steady stream of attempts grows each
// object once instead of every time.
const MaxPooled = 64 * Max

// Next returns the capacity of the chunk that follows a full one of capacity
// c: twice c, within [Min, Max], and at least need.
func Next(c, need int) int { return max(min(2*c, Max), Min, need) }
