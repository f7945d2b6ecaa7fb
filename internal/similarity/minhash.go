// Package similarity implements Bohr's similarity checking machinery (§4):
// probe construction from a store's cell column (the dimension cube as
// counts), cross-site similarity scoring, minhash signatures, and
// locality-sensitive hashing for high-dimensional feature vectors.
package similarity

import (
	"fmt"
	"math"
	"slices"

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

// FNV-style constants for KeyHash's word lanes (the classic FNV prime
// with two decorrelated offset bases, one per lane).
const (
	fnvOffset64  uint64 = 14695981039346656037
	fnvOffset64b uint64 = 0x9e3779b97f4a7c15
	fnvPrime64   uint64 = 1099511628211
)

// KeyHash hashes a key once, the input a signature is computed from;
// per-function values are derived by mixing it with each function's seed
// through a full-avalanche finalizer, which gives a family that is close
// enough to min-wise independent for Jaccard estimation. Two independent
// FNV lanes run over alternating 8-byte words (halving the serial
// xor-multiply dependency chain that dominates a byte-at-a-time FNV), the
// tail read as one zero-padded word, combined through a murmur-style
// avalanche. Never persisted, so it
// only needs to be fast and well mixed — not stable across releases.
func KeyHash(key string) uint64 {
	h1, h2 := fnvOffset64, fnvOffset64b
	n := len(key)
	j := 0
	for ; j+16 <= n; j += 16 {
		w1 := uint64(key[j]) | uint64(key[j+1])<<8 | uint64(key[j+2])<<16 | uint64(key[j+3])<<24 |
			uint64(key[j+4])<<32 | uint64(key[j+5])<<40 | uint64(key[j+6])<<48 | uint64(key[j+7])<<56
		w2 := uint64(key[j+8]) | uint64(key[j+9])<<8 | uint64(key[j+10])<<16 | uint64(key[j+11])<<24 |
			uint64(key[j+12])<<32 | uint64(key[j+13])<<40 | uint64(key[j+14])<<48 | uint64(key[j+15])<<56
		h1 = (h1 ^ w1) * fnvPrime64
		h2 = (h2 ^ w2) * fnvPrime64
	}
	if j+8 <= n {
		w := uint64(key[j]) | uint64(key[j+1])<<8 | uint64(key[j+2])<<16 | uint64(key[j+3])<<24 |
			uint64(key[j+4])<<32 | uint64(key[j+5])<<40 | uint64(key[j+6])<<48 | uint64(key[j+7])<<56
		h1 = (h1 ^ w) * fnvPrime64
		j += 8
	}
	if j < n {
		var w uint64
		for k := 0; j+k < n; k++ {
			w |= uint64(key[j+k]) << (8 * uint(k))
		}
		// Fold the key length into the tail word's high byte so "a" and
		// "a\x00" (and other zero-padding collisions) hash apart.
		h2 = (h2 ^ (w | uint64(uint8(n))<<56)) * fnvPrime64
	}
	h := h1 ^ (h2 * fnvPrime64)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
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
		hashes[i] = KeyHash(k)
	}
	return h.signature(hashes)
}

// signature is Signature over the keys' hashes, which it sorts in place. A
// signature is a per-function minimum over a set, and equal hashes mix to
// equal values, so each distinct hash is mixed with the seeds once: a
// partition's repeated keys cost a sort step, not m mixes.
func (h *MinHasher) signature(hashes []uint64) []uint64 {
	sig := make([]uint64, len(h.seeds))
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	slices.Sort(hashes)
	for j, b := range hashes {
		if j > 0 && b == hashes[j-1] {
			continue
		}
		for i, s := range h.seeds {
			if v := mix64(b ^ s); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// SignatureBatch computes the signatures of many key sets, given as their
// keys' hashes (KeyHash), through the worker pool (width <= 0 ⇒
// parallel.DefaultWidth) with at most one worker per sigGrain hashes.
// Each set is sorted in place, so no two may overlap. Each signature is
// an independent pure computation and results are merged in index order,
// so the output is identical at every width.
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
