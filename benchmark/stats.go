package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the exact nearest-rank p-th percentile (0 < p <= 100) of the
// raw samples; it returns 0 for an empty slice.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is the spread rule the benchmark contract states.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	m := len(sorted)
	if m < 2 {
		if m == 1 {
			return sorted[0], sorted[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	med := medianInterpolated(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// medianInterpolated averages the two middle values of an even-sized sample,
// as the contract's medians over runs do.
func medianInterpolated(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	m := len(sorted)
	if m%2 == 1 {
		return sorted[m/2]
	}
	return (sorted[m/2-1] + sorted[m/2]) / 2
}

// sameCount compares two reports of an exact count. A count that is a mean of
// ratios (reduce_byte_skew) is summed in floating point over however many
// passes fit, so the last digits may differ; nothing else may.
func sameCount(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rng is splitmix64: the harness's one seeded generator.
type rng struct{ state uint64 }

func splitmix(seed uint64) *rng { return &rng{seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
