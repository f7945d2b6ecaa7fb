// Package stats provides small numeric helpers shared across the Bohr
// reproduction: summary statistics (mean, percentiles, min/max), Zipf
// draws, and deterministic seeded random sources.
//
// Every stochastic component in the repository draws from an explicit
// *rand.Rand created through this package so experiment runs are
// bit-reproducible.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// NewRand returns a deterministic random source for the given seed.
// Callers must never share one source across goroutines; derive one per
// goroutine with Split.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child seed from a parent seed and a stream index so
// parallel components get independent but reproducible streams.
func Split(seed int64, stream int64) int64 {
	// SplitMix64-style mixing keeps child streams decorrelated even for
	// adjacent stream indices.
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies xs and leaves the input
// unmodified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Zipf draws n samples from a Zipf distribution over [0, k) with skew s>1
// behaviourally similar to real analytics key popularity. The returned
// values are element indices.
func Zipf(rng *rand.Rand, s float64, k uint64, n int) []uint64 {
	if s <= 1 {
		s = 1.0001
	}
	z := rand.NewZipf(rng, s, 1, k-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}
