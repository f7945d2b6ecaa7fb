// Package similarity implements Bohr's similarity checking machinery (§4):
// probe construction from a store's cell column (the dimension cube as
// counts), cross-site similarity scoring, minhash signatures, and
// locality-sensitive hashing for high-dimensional feature vectors.
package similarity

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"bohr/internal/engine"
	"bohr/internal/parallel"
)

// sigGrain is how many key hashes one pool worker takes in a signature
// batch, so a batch smaller than two grains runs inline. On 2 vCPUs, 16
// sets of a quarter-distinct keys took as long on two workers as on one
// at 2,048 hashes in all, and 1.35× less time at 4,096. Worker count
// never affects the output (results merge in index order).
const sigGrain = 2048

// MinHasher computes m-function minhash signatures over string sets, the
// estimator behind Jaccard similarity checks. Signatures of two sets agree
// on each hash function with probability equal to their Jaccard index.
type MinHasher struct {
	seeds []uint64
}

// NewMinHasher creates a hasher with m independent hash functions derived
// deterministically from seed.
func NewMinHasher(m int, seed int64) (*MinHasher, error) {
	if m <= 0 {
		return nil, fmt.Errorf("similarity: minhash needs at least one function, got %d", m)
	}
	seeds := make([]uint64, m)
	z := uint64(seed)
	for i := range seeds {
		// SplitMix64 step: decorrelated per-function seeds.
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		seeds[i] = x ^ (x >> 31)
	}
	return &MinHasher{seeds: seeds}, nil
}

// M returns the number of hash functions.
func (h *MinHasher) M() int { return len(h.seeds) }

// Subset returns a hasher over the given functions of h, in that order: its
// signature's entry k is entry fns[k] of h's.
func (h *MinHasher) Subset(fns []int) *MinHasher {
	seeds := make([]uint64, len(fns))
	for k, f := range fns {
		seeds[k] = h.seeds[f]
	}
	return &MinHasher{seeds: seeds}
}

// mix64 is the SplitMix64 finalizer: every input bit affects every output
// bit.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Signature computes the minhash signature of a key set. An empty set
// yields an all-max signature that matches nothing.
func (h *MinHasher) Signature(keys []string) []uint64 {
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = engine.KeyHash(k)
	}
	return h.signature(hashes)
}

// hashSets are the scratch tables of signature's dedupe, reused across
// calls.
var hashSets = sync.Pool{New: func() any { return new([]uint64) }}

// signature is Signature over the keys' hashes, which it only reads. A
// signature is a per-function minimum over a set, and equal hashes mix to
// equal values, so each distinct hash is mixed with the seeds once, found
// distinct through an open-addressed set (a zero slot is free, so the zero
// hash is tracked apart): a partition's repeated keys cost a probe, not m
// mixes.
func (h *MinHasher) signature(hashes []uint64) []uint64 {
	seeds := h.seeds
	sig := make([]uint64, len(seeds))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	buf := hashSets.Get().(*[]uint64)
	defer hashSets.Put(buf)
	size := 1 << bits.Len(uint(2*len(hashes)))
	if cap(*buf) < size {
		*buf = make([]uint64, size)
	}
	set, mask, zero := (*buf)[:size], uint64(size-1), false
	clear(set)
	for _, b := range hashes {
		j := b & mask
		for set[j] != 0 && set[j] != b {
			j = (j + 1) & mask
		}
		if set[j] == b && (b != 0 || zero) {
			continue // seen before
		}
		set[j], zero = b, zero || b == 0
		for i, s := range seeds {
			if v := mix64(b ^ s); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// SignatureBatch computes the signatures of many key sets, given as their
// keys' hashes (engine.KeyHash), through the worker pool (width <= 0 ⇒
// parallel.DefaultWidth) with at most one worker per sigGrain hashes.
// The sets are only read, so they may overlap. Each signature is an
// independent pure computation and results are merged in index order, so
// the output is identical at every width.
func (h *MinHasher) SignatureBatch(hashsets [][]uint64, width int) [][]uint64 {
	total := 0
	for _, hs := range hashsets {
		total += len(hs)
	}
	workers := max(1, min(parallel.Resolve(width), total/sigGrain))
	out, _ := parallel.MapOrdered(workers, len(hashsets), func(i int) ([]uint64, error) {
		return h.signature(hashsets[i]), nil
	})
	return out
}

// EstimateJaccard estimates the Jaccard index of the two sets behind the
// signatures: the fraction of hash functions on which they agree.
// Signatures must come from the same MinHasher.
func EstimateJaccard(a, b []uint64) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, fmt.Errorf("similarity: signatures have lengths %d and %d", len(a), len(b))
	}
	match := 0
	for i := range a {
		if a[i] == b[i] && a[i] != math.MaxUint64 {
			match++
		}
	}
	return float64(match) / float64(len(a)), nil
}

// ExactJaccard computes the exact Jaccard index |X∩Y| / |X∪Y| of two key
// sets, the ground truth the minhash estimator approximates. Two empty
// sets have Jaccard 0 by convention here (nothing to combine).
func ExactJaccard(x, y []string) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	xs := make(map[string]bool, len(x))
	for _, k := range x {
		xs[k] = true
	}
	ys := make(map[string]bool, len(y))
	for _, k := range y {
		ys[k] = true
	}
	inter := 0
	for k := range xs {
		if ys[k] {
			inter++
		}
	}
	union := len(xs) + len(ys) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// WeightedJaccard computes the Jaccard index generalized to multisets
// (a.k.a. the Ruzicka similarity): Σ min(cx, cy) / Σ max(cx, cy) over key
// counts. It measures the fraction of records that would combine when the
// two multisets are co-located, which is the quantity Bohr's combiner
// actually benefits from.
func WeightedJaccard(x, y map[string]int) float64 {
	var num, den float64
	seen := make(map[string]bool, len(x)+len(y))
	for k, cx := range x {
		cy := y[k]
		num += float64(min(cx, cy))
		den += float64(max(cx, cy))
		seen[k] = true
	}
	for k, cy := range y {
		if !seen[k] {
			den += float64(cy)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
