package engine

import "fmt"

// Partition is one RDD-style partition: a contiguous slice of a site's
// records. Partitions preserve generation order, so data that arrived
// together stays together — the locality the RDD-similarity assigner
// exploits.
type Partition struct {
	Index   int
	Records []KV
	// Hashes are KeyHash of each of Records, when the layout had them
	// (a store's are kept per content and carried across writes), or nil.
	// They are the store's: an assigner only reads them.
	Hashes []uint64
}

// FNV-style constants for KeyHash's word lanes (the classic FNV prime
// with two decorrelated offset bases, one per lane).
const (
	fnvOffset64  uint64 = 14695981039346656037
	fnvOffset64b uint64 = 0x9e3779b97f4a7c15
	fnvPrime64   uint64 = 1099511628211
)

// KeyHash hashes a key once: the input a minhash signature is computed
// from (similarity mixes it with each function's seed through a
// full-avalanche finalizer, a family close enough to min-wise independent
// for Jaccard estimation) and what a layout counts distinct keys by. A
// store keeps its records' hashes per content. Two independent
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

// PartitionRecords splits records into n contiguous partitions of
// near-equal size, without Hashes. Fewer partitions are returned when
// there are fewer records than n; zero records yield zero partitions.
func PartitionRecords(records []KV, n int) ([]Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: partition count must be positive, got %d", n)
	}
	spans := partitionSpans(0, len(records), n)
	if spans == nil {
		return nil, nil
	}
	out := make([]Partition, len(spans))
	for i, s := range spans {
		out[i] = Partition{Index: i, Records: records[s.lo:s.hi]}
	}
	return out, nil
}

// partitionSpans cuts the index range [lo, hi) as PartitionRecords cuts
// records.
func partitionSpans(lo, hi, n int) []span {
	if hi <= lo {
		return nil
	}
	n = min(n, hi-lo)
	out := make([]span, n)
	size, extra := (hi-lo)/n, (hi-lo)%n
	for i := range out {
		end := lo + size
		if i < extra {
			end++
		}
		out[i] = span{lo, end}
		lo = end
	}
	return out
}

// Assigner maps partitions to executors on one machine. Implementations:
// RoundRobinAssigner (Spark's default random/round-robin behaviour) and
// the rdd package's similarity-aware assigner (§6).
type Assigner interface {
	// Assign returns, for each partition, the executor index in
	// [0, executors), plus the modeled overhead in seconds the assignment
	// itself cost (e.g. DIMSUM similarity checking time).
	Assign(parts []Partition, executors int) (assignment []int, overhead float64, err error)
}

// RoundRobinAssigner assigns partitions to executors cyclically — the
// baseline behaviour where co-location of similar partitions is luck.
type RoundRobinAssigner struct{}

// Assign implements Assigner.
func (RoundRobinAssigner) Assign(parts []Partition, executors int) ([]int, float64, error) {
	if executors <= 0 {
		return nil, 0, fmt.Errorf("engine: assigner needs positive executors, got %d", executors)
	}
	out := make([]int, len(parts))
	for i := range parts {
		out[i] = i % executors
	}
	return out, 0, nil
}
