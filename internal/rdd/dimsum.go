// Package rdd implements Bohr's runtime RDD similarity machinery (§6):
// pairwise partition similarity via a DIMSUM-style sampled minhash
// comparison adapted to Jaccard similarity, k-means clustering of the
// similarity matrix, and an engine.Assigner that co-locates similar
// partitions on the same executor to reduce inter-executor communication.
package rdd

import (
	"fmt"
	"sync"

	"bohr/internal/engine"
	"bohr/internal/parallel"
	"bohr/internal/similarity"
	"bohr/internal/stats"
)

// Modeled per-operation costs used to account the similarity-checking
// overhead that the paper includes in QCT (Table 4): signature hashing per
// record-function pair and signature-entry comparison per pair-function.
const (
	hashOpCost = 1e-8 // seconds per record × hash function (signatures build once)
	cmpOpCost  = 2e-5 // seconds per compared signature entry (pairwise stage)
)

// DimsumConfig controls the pairwise similarity computation.
type DimsumConfig struct {
	// HashFunctions is m, the number of minhash functions per partition.
	HashFunctions int
	// Gamma in (0, 1] is the DIMSUM oversampling trade-off: the fraction
	// of hash functions actually compared per pair. Lower gamma is faster
	// and noisier; pairs that show no matches in the sampled prefix are
	// ruled out early (the algorithm's probabilistic skipping).
	Gamma float64
	// Seed drives sampling deterministically.
	Seed int64
}

// DefaultDimsum mirrors the prototype's settings.
func DefaultDimsum() DimsumConfig {
	return DimsumConfig{HashFunctions: 64, Gamma: 0.5, Seed: 1}
}

func (c DimsumConfig) validate() error {
	if c.HashFunctions <= 0 {
		return fmt.Errorf("rdd: dimsum needs at least one hash function, got %d", c.HashFunctions)
	}
	if !(c.Gamma > 0 && c.Gamma <= 1) { // NaN too
		return fmt.Errorf("rdd: dimsum gamma must be in (0,1], got %v", c.Gamma)
	}
	return nil
}

// SimilarityMatrix holds pairwise Jaccard estimates between partitions on
// one machine plus the modeled cost of computing them.
type SimilarityMatrix struct {
	Sim [][]float64
	// Comparisons counts signature entries compared (post-skipping).
	Comparisons int
	// Overhead is the modeled seconds the computation took; the paper
	// includes it in QCT.
	Overhead float64
}

// sampler is what PairwiseSimilarity draws from its configuration alone:
// the hasher over the sampled functions, one seeded sample shared by every
// pair — entry s of a signature is function order[s] of the m — and how
// many of them a pair compares before it may be skipped.
type sampler struct {
	hasher         *similarity.MinHasher
	sample, prefix int
}

// samplers keeps each configuration's sampler, a pure function of it:
// drawing the sample anew would seed a 4.9 KB source on every Assign.
var samplers sync.Map // DimsumConfig → *sampler

func samplerOf(cfg DimsumConfig) (*sampler, error) {
	if sp, ok := samplers.Load(cfg); ok {
		return sp.(*sampler), nil
	}
	m := cfg.HashFunctions
	hasher, err := similarity.NewMinHasher(m, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sample := max(int(float64(m)*cfg.Gamma+0.5), 1)
	order := stats.NewRand(cfg.Seed).Perm(m)
	// Only the sampled functions are ever compared, so only they are built.
	sp := &sampler{hasher: hasher.Subset(order[:sample]), sample: sample, prefix: max(sample/4, 1)}
	samplers.Store(cfg, sp)
	return sp, nil
}

// pairRow is one partition's half-row of pairwise estimates: vals[l] is
// the estimate for the pair (i, i+1+l) and compared counts the signature
// entries that survived probabilistic skipping.
type pairRow struct {
	vals     []float64
	compared int
}

// PairwiseSimilarity estimates the Jaccard similarity between every pair
// of partitions. Per pair only a γ-sample of the m hash functions — one
// seeded sample shared by every pair — is compared, and a pair whose
// sampled prefix shows no matches at all is skipped after the prefix —
// DIMSUM's probabilistic pruning mapped onto minhash signatures. So a
// partition's signature is built once, over the sampled functions alone,
// from its key ids (the partition's own when it carries them), each
// distinct key of the machine mixed once per function; Overhead still
// charges every record × m, the modeled cost QCT includes.
//
// Signatures are computed as a pooled batch and pair rows fan out over the
// worker pool; every worker computes an independent half-row merged in
// index order, so both the matrix and the Comparisons counter are
// identical at any pool width.
func PairwiseSimilarity(parts []engine.Partition, cfg DimsumConfig) (*SimilarityMatrix, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, m := len(parts), cfg.HashFunctions
	totalRecords := 0
	for _, p := range parts {
		totalRecords += len(p.Records)
	}
	// A partition's key ids are the layout's, read in place; partitions that
	// came without them have their keys interned here.
	ids, hashes := engine.PartitionKeys(parts)
	sp, err := samplerOf(cfg)
	if err != nil {
		return nil, err
	}
	sample, prefix := sp.sample, sp.prefix
	sigs := sp.hasher.SignatureBatch(ids, hashes, 0)

	rows, err := parallel.MapOrdered(0, n, func(i int) (pairRow, error) {
		row := pairRow{vals: make([]float64, n-i-1)}
		for j := i + 1; j < n; j++ {
			matches, compared := 0, 0
			for s := 0; s < sample; s++ {
				compared++
				if sigs[i][s] == sigs[j][s] {
					matches++
				}
				// Probabilistic skip: a pair with zero matches after the
				// prefix is almost surely dissimilar; stop early.
				if s+1 == prefix && matches == 0 {
					break
				}
			}
			row.compared += compared
			row.vals[j-i-1] = float64(matches) / float64(compared)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	res := &SimilarityMatrix{Sim: make([][]float64, n)}
	for i := 0; i < n; i++ {
		res.Sim[i] = make([]float64, n)
		res.Sim[i][i] = 1
	}
	for i, row := range rows {
		res.Comparisons += row.compared
		for l, est := range row.vals {
			j := i + 1 + l
			res.Sim[i][j] = est
			res.Sim[j][i] = est
		}
	}
	res.Overhead = float64(totalRecords*m)*hashOpCost + float64(res.Comparisons)*cmpOpCost
	return res, nil
}
