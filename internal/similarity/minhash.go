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

// mixGrain is how many mixes one pool worker takes in a signature batch,
// so a batch of fewer functions × distinct keys runs inline. Worker count
// never affects the output (each value has its own place).
const mixGrain = 16384

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
	ids, hashes, seen := make([]int32, len(keys)), []uint64(nil), map[string]int32{}
	for i, k := range keys {
		id, ok := seen[k]
		if !ok {
			id = int32(len(hashes))
			seen[k], hashes = id, append(hashes, engine.KeyHash(k))
		}
		ids[i] = id
	}
	return h.SignatureBatch([][]int32{ids}, hashes, 1)[0]
}

// sigScratch is SignatureBatch's working state, reused across calls: which
// ids the batch met (seen[id] == gen) and the slot each got, every slot's
// id and the sets that list it (a bit per set), and per worker a function's
// column of mixes, its candidates and the sets they cover.
type sigScratch struct {
	gen     uint32
	seen    []uint32
	slot    []int32
	ids     []int32
	masks   []uint64
	col     []uint64
	cand    []int32
	covered []uint64
}

var sigScratches = sync.Pool{New: func() any { return new(sigScratch) }}

// sized returns buf emptied, with room for n elements: itself, or an
// array of exactly n when it is shorter.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// candidates is how many of a set's distinct keys SignatureBatch expects
// below its threshold: a set with none there (each function's chance is
// about e^-candidates) has its minimum taken over all of its keys instead.
const candidates = 8

// SignatureBatch computes the signatures of many key sets, each given as
// key ids, repeats allowed, into hashes: hashes[id] is the KeyHash of key
// id. A signature is a per-function minimum over a set, and equal keys mix
// to equal values, so per function the batch mixes each distinct id once,
// into a pooled column, and hands the values below a threshold to the sets
// that list the id (found by stamp and a bit per set); only a set none of
// whose keys mixed below it reads its keys' values from the column.
// Every set's minimum is exact either way, so the threshold — sized from
// the sets' mean distinct count — moves work, never a result. Functions run
// on the worker pool (width <= 0 ⇒ parallel.DefaultWidth), a contiguous
// share per worker, with at most one worker per mixGrain mixes. The sets
// are only read, so they may overlap; each entry of each signature is
// written by one worker, so the output is identical at every width.
func (h *MinHasher) SignatureBatch(sets [][]int32, hashes []uint64, width int) [][]uint64 {
	m, n := len(h.seeds), len(sets)
	sc := sigScratches.Get().(*sigScratch)
	defer sigScratches.Put(sc)
	if len(sc.seen) < len(hashes) {
		sc.seen, sc.slot = make([]uint32, len(hashes)), make([]int32, len(hashes))
	}
	if sc.gen++; sc.gen == 0 {
		clear(sc.seen)
		sc.gen = 1
	}
	words, total := (n+63)/64, 0
	for _, set := range sets {
		total += len(set)
	}
	distinct := min(total, len(hashes))
	sc.ids, sc.masks = sized(sc.ids, distinct), sized(sc.masks, distinct*words)
	pairs := 0 // the sets' distinct ids, summed
	for i, set := range sets {
		word, bit := i/64, uint64(1)<<(i%64)
		for _, id := range set {
			if sc.seen[id] != sc.gen {
				sc.seen[id], sc.slot[id] = sc.gen, int32(len(sc.ids))
				sc.ids = append(sc.ids, id)
				for range words {
					sc.masks = append(sc.masks, 0)
				}
			}
			mask := &sc.masks[int(sc.slot[id])*words+word]
			pairs += int(^*mask>>(i%64)) & 1 // the set's first listing of the id
			*mask |= bit
		}
	}
	tau := uint64(math.MaxUint64)
	if x := float64(candidates*n) / float64(max(pairs, 1)); x < 1 {
		tau = uint64(x * (1 << 64))
	}

	flat := make([]uint64, n*m)
	for i := range flat {
		flat[i] = math.MaxUint64
	}
	slots := len(sc.ids)
	workers := max(1, min(parallel.Resolve(width), m, slots*m/mixGrain))
	sc.col = sized(sc.col, workers*slots)[:workers*slots]
	sc.cand = sized(sc.cand, workers*slots)[:workers*slots]
	sc.covered = sized(sc.covered, workers*words)[:workers*words]
	parallel.ForEach(workers, workers, func(w int) error {
		col, cand := sc.col[w*slots:(w+1)*slots], sc.cand[w*slots:(w+1)*slots]
		covered := sc.covered[w*words : (w+1)*words]
		for f := w * m / workers; f < (w+1)*m/workers; f++ {
			seed := h.seeds[f]
			clear(covered)
			k := 0
			for s, id := range sc.ids {
				v := mix64(hashes[id] ^ seed)
				col[s], cand[k] = v, int32(s)
				if v < tau {
					k++
				}
			}
			for _, s := range cand[:k] {
				v := col[s]
				for word, sets := range sc.masks[int(s)*words : int(s)*words+words] {
					covered[word] |= sets
					for ; sets != 0; sets &= sets - 1 {
						at := &flat[(word*64+bits.TrailingZeros64(sets))*m+f]
						*at = min(*at, v)
					}
				}
			}
			for i := range n {
				if covered[i/64]&(1<<(i%64)) != 0 {
					continue
				}
				v := uint64(math.MaxUint64)
				for _, id := range sets[i] {
					v = min(v, col[sc.slot[id]])
				}
				flat[i*m+f] = v
			}
		}
		return nil
	})
	out := make([][]uint64, n)
	for i := range out {
		out[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
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
