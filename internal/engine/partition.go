package engine

import "fmt"

// Partition is one RDD-style partition: a contiguous slice of a site's
// records. Partitions preserve generation order, so data that arrived
// together stays together — the locality the RDD-similarity assigner
// exploits.
type Partition struct {
	Index   int
	Records []KV
}

// PartitionRecords splits records into n contiguous partitions of
// near-equal size. Fewer partitions are returned when there are fewer
// records than n; zero records yield zero partitions.
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
