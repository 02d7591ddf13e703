package main

import (
	"math"
	"sort"

	"failstop/internal/stats"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 100*q)
}

// tickPercentile returns the q-quantile of simulated-tick samples by
// nearest rank, so the result is always a tick count that occurred.
func tickPercentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank])
}

// ratio returns a/b, or 0 when b is 0: a layer that did no work reads 0,
// not NaN, in the per-layer table.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is an FNV-64a accumulator over simulated statistics. It is written
// out by hand (rather than through hash/fnv) so that feeding it allocates
// nothing: the harness updates it between timed ops while the allocation
// counters are running.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d *digest) add(v int64) {
	h := *d
	if h == 0 {
		h = fnvOffset
	}
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= digest(u & 0xff)
		h *= fnvPrime
		u >>= 8
	}
	*d = h
}
