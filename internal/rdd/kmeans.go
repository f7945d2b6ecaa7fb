package rdd

import (
	"fmt"
	"math"

	"bohr/internal/parallel"
	"bohr/internal/stats"
)

// kmeansParallelMin is the point count below which the distance loops
// stay sequential: similarity matrices are usually tiny (one row per
// partition) and goroutine fan-out would cost more than it saves.
const kmeansParallelMin = 128

// kmeansGrain chunks the point range for the pooled distance loops; fixed
// grain, so per-chunk work is width-independent (the loops only write
// disjoint per-point slots — no float folds — but a stable shape keeps
// the kernels easy to reason about).
const kmeansGrain = 256

func kmeansWidth(n int) int {
	if n < kmeansParallelMin {
		return 1
	}
	return 0 // resolve to the process default
}

// kmeansIters bounds the Lloyd iterations the assigner runs, and KMeans's
// when it is given iters <= 0.
const kmeansIters = 20

// KMeans clusters points into k clusters with Lloyd's algorithm and
// k-means++ seeding, deterministically for a given seed. It returns the
// cluster index of each point. k > len(points) is clamped; every cluster
// in [0, effectiveK) is non-empty on return.
func KMeans(points [][]float64, k, iters int, seed int64) ([]int, error) {
	n := len(points)
	if n == 0 {
		return nil, nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("rdd: kmeans needs k > 0, got %d", k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("rdd: kmeans point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = kmeansIters
	}
	rng := stats.NewRand(seed)

	// k-means++ initialization.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	chunks := parallel.Chunks(n, kmeansGrain)
	width := kmeansWidth(n)
	for len(centroids) < k {
		// Pooled distance fill: each chunk writes disjoint d2 slots; the
		// weight total is then folded sequentially in index order, the
		// same float-addition order as the sequential loop.
		_ = parallel.ForEach(width, len(chunks), func(ci int) error {
			lo, hi := chunks[ci][0], chunks[ci][1]
			for i := lo; i < hi; i++ {
				best := math.Inf(1)
				for _, c := range centroids {
					if d := sqDist(points[i], c); d < best {
						best = d
					}
				}
				d2[i] = best
			}
			return nil
		})
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n) // all points coincide with centroids
		} else {
			r := rng.Float64() * total
			for i, d := range d2 {
				r -= d
				if r <= 0 {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[next]...))
	}

	assign := make([]int, n)
	chunkChanged := make([]bool, len(chunks))
	for it := 0; it < iters; it++ {
		// Pooled assignment: nearest centroid per point, disjoint writes;
		// the result depends only on points and centroids, not the width.
		_ = parallel.ForEach(width, len(chunks), func(ci int) error {
			lo, hi := chunks[ci][0], chunks[ci][1]
			chunkChanged[ci] = false
			for i := lo; i < hi; i++ {
				best, bestD := 0, math.Inf(1)
				for cj, c := range centroids {
					if d := sqDist(points[i], c); d < bestD {
						bestD = d
						best = cj
					}
				}
				if assign[i] != best {
					assign[i] = best
					chunkChanged[ci] = true
				}
			}
			return nil
		})
		changed := false
		for _, cc := range chunkChanged {
			changed = changed || cc
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for ci := range sums {
			sums[ci] = make([]float64, dim)
		}
		for i, p := range points {
			ci := assign[i]
			counts[ci]++
			for d := range p {
				sums[ci][d] += p[d]
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				continue // re-seeded below
			}
			for d := range centroids[ci] {
				centroids[ci][d] = sums[ci][d] / float64(counts[ci])
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	rebalanceEmpty(points, assign, k)
	return assign, nil
}

// rebalanceEmpty guarantees every cluster id in [0,k) has at least one
// point by stealing from the largest cluster — executors must all receive
// work.
func rebalanceEmpty(points [][]float64, assign []int, k int) {
	n := len(points)
	if k > n {
		k = n
	}
	for {
		counts := make([]int, k)
		for _, a := range assign {
			counts[a]++
		}
		empty := -1
		for ci := 0; ci < k; ci++ {
			if counts[ci] == 0 {
				empty = ci
				break
			}
		}
		if empty < 0 {
			return
		}
		// Steal one point from the largest cluster.
		largest := 0
		for ci := 1; ci < k; ci++ {
			if counts[ci] > counts[largest] {
				largest = ci
			}
		}
		for i := range assign {
			if assign[i] == largest {
				assign[i] = empty
				break
			}
		}
	}
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
