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

// Next returns the capacity of the chunk that follows a full one of capacity
// c: twice c, within [Min, Max], and at least need.
func Next(c, need int) int { return max(min(2*c, Max), Min, need) }
