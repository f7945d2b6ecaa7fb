package rdd

import (
	"fmt"

	"bohr/internal/engine"
)

// Assigner is Bohr's similarity-aware replacement for random partition→
// executor placement (§6): it estimates pairwise partition similarity with
// the sampled-minhash DIMSUM adaptation, clusters the similarity matrix
// with k-means into one cluster per executor, and co-locates each cluster.
// The modeled checking time is returned as assignment overhead, which the
// engine adds to QCT — matching the paper's measurement methodology.
//
// An Assigner is a comparable configuration value and Assign a pure
// function of it and the partitions: two equal assigners place alike, which
// is what lets a store keep the layout one of them produced
// (engine.Store.Layout) for the next plan's.
type Assigner struct {
	Config DimsumConfig
}

// NewAssigner creates an assigner with the default DIMSUM configuration.
func NewAssigner(seed int64) Assigner {
	cfg := DefaultDimsum()
	cfg.Seed = seed
	return Assigner{Config: cfg}
}

// Assign implements engine.Assigner.
func (a Assigner) Assign(parts []engine.Partition, executors int) ([]int, float64, error) {
	if executors <= 0 {
		return nil, 0, fmt.Errorf("rdd: assigner needs positive executors, got %d", executors)
	}
	if len(parts) == 0 {
		return nil, 0, nil
	}
	if executors == 1 {
		return make([]int, len(parts)), 0, nil
	}
	mat, err := PairwiseSimilarity(parts, a.Config)
	if err != nil {
		return nil, 0, err
	}
	// Each partition's feature vector is its row of the similarity matrix:
	// partitions similar to the same neighbours cluster together.
	assign, err := KMeans(mat.Sim, executors, kmeansIters, a.Config.Seed)
	if err != nil {
		return nil, 0, err
	}
	balance(assign, parts, executors)
	return assign, mat.Overhead, nil
}

// balance caps executor load: k-means can pile most partitions onto one
// executor, which would serialize the map stage. Partitions are spilled
// from overloaded executors (smallest partitions first, which break up a
// similarity cluster the least) onto the least-loaded ones.
func balance(assign []int, parts []engine.Partition, executors int) {
	load := make([]int, executors)      // record counts
	members := make([][]int, executors) // partition indices per executor
	total := 0
	for i, e := range assign {
		load[e] += len(parts[i].Records)
		members[e] = append(members[e], i)
		total += len(parts[i].Records)
	}
	// Allow up to 2× the mean load per executor before spilling.
	limit := max(2*total/executors, 1)
	for e := 0; e < executors; e++ {
		for load[e] > limit && len(members[e]) > 1 {
			// Spill the smallest member to the least-loaded executor.
			smallest := 0
			for mi, pi := range members[e] {
				if len(parts[pi].Records) < len(parts[members[e][smallest]].Records) {
					smallest = mi
				}
			}
			pi := members[e][smallest]
			members[e] = append(members[e][:smallest], members[e][smallest+1:]...)
			least := 0
			for o := 1; o < executors; o++ {
				if load[o] < load[least] {
					least = o
				}
			}
			if least == e {
				break
			}
			assign[pi] = least
			load[e] -= len(parts[pi].Records)
			load[least] += len(parts[pi].Records)
			members[least] = append(members[least], pi)
		}
	}
}
