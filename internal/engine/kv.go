// Package engine implements the mini geo-distributed analytics engine the
// Bohr reproduction runs on: RDD-style partitions, per-machine executors,
// map tasks with combiners, an all-to-all WAN shuffle, and reduce tasks.
// It substitutes for Apache Spark in the paper's prototype (§7): the QCT
// phenomena Bohr targets depend only on map/combine/shuffle/reduce
// semantics, which are implemented faithfully here, with compute time
// modeled per record and the shuffle's WAN time taken from the wan
// package's per-link aggregate model (Estimate).
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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
// next forgets the keys (not the buckets) between executors. A Select's
// scan appends its groups to out too, and leaves the slot map alone.
// RunConcurrent takes one per site from combinerPool and hands it from
// scan to scan, so out and the slot map's buckets outlive the call, and a
// scan's Inter (which is out) lives only until the same site's next scan:
// the job's fold must be done by then.
type combiner struct {
	op   CombineOp
	slot map[string]int32 // key → index in out, current executor's groups only
	out  []KV
	raw  int // records emitted since reset
}

// reset readies the combiner for a scan under op, keeping its buffers.
func (c *combiner) reset(op CombineOp) {
	if c.slot == nil {
		c.slot = make(map[string]int32)
	}
	c.op, c.out, c.raw = op, c.out[:0], 0
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
}

// next starts the next executor: its groups are independent of the ones
// already in out.
func (c *combiner) next() { clear(c.slot) }

// empty drops every key the combiner holds, keeping its buffers, so a
// pooled combiner pins no strings of the run that used it.
func (c *combiner) empty() {
	clear(c.slot)
	clear(c.out[:cap(c.out)])
	c.out = c.out[:0]
}

// combinerPool holds emptied combiners between RunConcurrent calls, and
// keyIndexPool the key tables' emptied indexes (keyTable.done).
var combinerPool = sync.Pool{New: func() any { return new(combiner) }}
var keyIndexPool sync.Pool

// keyTable is the reduce side of one job round: a slot per distinct key, in
// first-arrival order, holding the key's folded partials and its reduce
// site. A key's owner is computed once, when its first partial arrives.
// Every partial of a key goes to that one owner, so folding a round's
// partials in arrival order adds each key's values in exactly the order its
// reducer meets them.
type keyTable struct {
	op       CombineOp
	taskFrac []float64
	// index (key → slot) serves the fold only: done hands it to the next
	// job's table, and the call's last one back to keyIndexPool. slots,
	// owner and arrivals live on to the reduce step, and the last round's
	// slots are the query's output: never pooled.
	index map[string]int32
	slots []KV
	owner []int32
	// arrivals[j] counts the partials reducer j received.
	arrivals []int
}

// newKeyTable sizes a table for about hint keys. Owners are drawn from
// taskFrac by KeyOwner; none or one fraction is a single reducer. index is
// an empty map an earlier table's done handed on, or nil for a new one.
func newKeyTable(op CombineOp, taskFrac []float64, hint int, index map[string]int32) *keyTable {
	if index == nil {
		index = make(map[string]int32, hint)
	}
	return &keyTable{
		op: op, taskFrac: taskFrac, index: index,
		slots: make([]KV, 0, hint), owner: make([]int32, 0, hint),
		arrivals: make([]int, max(len(taskFrac), 1)),
	}
}

// add folds one partial into its key's slot and returns the key's owner.
// The first partial is the slot's value and later ones merge under
// op.apply, which adds COUNT's partial counts rather than re-counting them:
// the combiner/reducer asymmetry of two-stage counting.
func (t *keyTable) add(r KV) int32 {
	s, ok := t.index[r.Key]
	if ok {
		t.slots[s].Val = t.op.apply(t.slots[s].Val, r.Val)
	} else {
		s = int32(len(t.slots))
		t.index[r.Key] = s
		t.slots = append(t.slots, r)
		var owner int32
		if len(t.taskFrac) > 1 {
			owner = int32(KeyOwner(r.Key, t.taskFrac))
		}
		t.owner = append(t.owner, owner)
	}
	o := t.owner[s]
	t.arrivals[o]++
	return o
}

// done ends the fold and returns the emptied index for the next table.
func (t *keyTable) done() map[string]int32 {
	index := t.index
	clear(index)
	t.index = nil
	return index
}

// runs returns each reducer's output, its slots sorted by key, cut from one
// array that a count pass sizes exactly before the fill pass.
func (t *keyTable) runs() [][]KV {
	keys := make([]int, len(t.arrivals))
	for _, o := range t.owner {
		keys[o]++
	}
	all, runs := make([]KV, len(t.slots)), make([][]KV, len(keys))
	lo := 0
	for j, k := range keys {
		runs[j] = all[lo : lo : lo+k]
		lo += k
	}
	for s, o := range t.owner {
		runs[o] = append(runs[o], t.slots[s])
	}
	for _, run := range runs {
		slices.SortFunc(run, byKey)
	}
	return runs
}

func byKey(a, b KV) int { return strings.Compare(a.Key, b.Key) }

// CombinePartials merges already-combined partial aggregates by key into
// one reducer's output, sorted by key: a round's key table with a single
// owner. The engine's reduce folds through the same key table; this
// single-owner form is the reference tests fold a scan's partials with
// (sql's coded-scan differential, engine's stage tests).
func CombinePartials(records []KV, op CombineOp) []KV {
	t := newKeyTable(op, nil, 0, nil)
	for _, r := range records {
		t.add(r)
	}
	slices.SortFunc(t.slots, byKey)
	return t.slots
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
