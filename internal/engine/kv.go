// Package engine implements the mini geo-distributed analytics engine the
// Bohr reproduction runs on: RDD-style partitions, per-machine executors,
// map tasks with combiners, an all-to-all WAN shuffle, and reduce tasks.
// It substitutes for Apache Spark in the paper's prototype (§7): the QCT
// phenomena Bohr targets depend only on map/combine/shuffle/reduce
// semantics, which are implemented faithfully here, with compute time
// modeled per record and WAN time taken from the wan package's fluid model.
package engine

import (
	"fmt"
	"slices"
	"strings"
)

// KV is one record: a combine key and a numeric value. Workloads project
// raw rows down to the key attributes a query needs before handing them to
// the engine, mirroring how Bohr feeds a query its dimension cube.
type KV struct {
	Key string
	Val float64
}

// CombineOp is an associative, commutative merge of two values for the
// same key — the operation both the combiner and the reducer apply.
type CombineOp int

// Supported combine operations.
const (
	OpSum CombineOp = iota
	OpCount
	OpMax
	OpMin
)

func (op CombineOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpCount:
		return "count"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return "?"
}

// apply merges two values under the operation. For OpCount the values are
// partial counts, so merging is addition.
func (op CombineOp) apply(a, b float64) float64 {
	switch op {
	case OpSum, OpCount:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("engine: unknown combine op %d", op))
}

// initial converts a record's value into the op's accumulator seed.
func (op CombineOp) initial(v float64) float64 {
	if op == OpCount {
		return 1
	}
	return v
}

// combiner folds emitted records by key under an operation, keeping the
// groups in first-emit order: for one key, values merge in exactly the
// order they were emitted. One combiner serves the executors of a site
// stage in turn — groups of every executor land in the same out slice, and
// next forgets the keys (not the buckets) between executors.
type combiner struct {
	op   CombineOp
	slot map[string]int32 // key → index in out, current executor's groups only
	out  []KV
	// groups and raw count the groups opened and the records emitted over
	// the combiner's lifetime; groups == len(out) unless counting only.
	groups, raw int
}

func newCombiner(op CombineOp, sizeHint int) *combiner {
	return &combiner{op: op, slot: make(map[string]int32, sizeHint)}
}

// emit folds one record into its key's group.
func (c *combiner) emit(key string, val float64) {
	c.raw++
	v := c.op.initial(val)
	if i, ok := c.slot[key]; ok {
		c.out[i].Val = c.op.apply(c.out[i].Val, v)
		return
	}
	c.slot[key] = int32(len(c.out))
	c.out = append(c.out, KV{Key: key, Val: v})
	c.groups++
}

// count is emit for a caller that wants only the number of groups: no
// value is folded and no record is kept.
func (c *combiner) count(key string, _ float64) {
	c.raw++
	if _, ok := c.slot[key]; !ok {
		c.slot[key] = 0
		c.groups++
	}
}

// next starts the next executor: its groups are independent of the ones
// already in out.
func (c *combiner) next() { clear(c.slot) }

// Combine merges records by key under the operation, returning output
// sorted by key for deterministic downstream behaviour — what a reducer
// does. (The map-side combiner skips the sort: see MapCombine.)
func Combine(records []KV, op CombineOp) []KV { return combine(records, op, 0) }

// combine is Combine sized for groups keys, a lower bound the caller saw:
// most partials fold away. Keys are unique once folded.
func combine(records []KV, op CombineOp, groups int) []KV {
	c := newCombiner(op, groups)
	c.out = make([]KV, 0, groups)
	for _, r := range records {
		c.emit(r.Key, r.Val)
	}
	slices.SortFunc(c.out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	return c.out
}

// CombinePartials merges already-combined partial aggregates by key. It
// is Combine for every operation except COUNT, whose partial values are
// partial counts and must be summed rather than re-counted — the standard
// combiner/reducer asymmetry of two-stage counting.
func CombinePartials(records []KV, op CombineOp) []KV { return combinePartials(records, op, 0) }

func combinePartials(records []KV, op CombineOp, groups int) []KV {
	if op == OpCount {
		op = OpSum
	}
	return combine(records, op, groups)
}

// DistinctKeys returns the number of distinct keys in records.
func DistinctKeys(records []KV) int {
	seen := make(map[string]struct{}, len(records))
	for _, r := range records {
		seen[r.Key] = struct{}{}
	}
	return len(seen)
}

// SelfSimilarity is the in-data combiner-reduction fraction: with n
// records over d distinct keys the combiner removes (n−d)/n of them.
func SelfSimilarity(records []KV) float64 {
	if len(records) == 0 {
		return 0
	}
	return 1 - float64(DistinctKeys(records))/float64(len(records))
}

// fnv1a hashes a key for shuffle partitioning.
func fnv1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
