package engine

import "math/rand"

// Forward takes n records, chosen by RandomMover, out of the store: the
// source's half of a move, for benchmarks outside the package.
func Forward(st *Store, n int, rng *rand.Rand) error {
	return st.remove(st.choose(RandomMover{}, nil, n, rng))
}

// SetOutput makes out what r.Output returns: the output of a run made
// outside the package, such as the tests' reference run.
func (r *RunResult) SetOutput(out []KV) { r.output = out }

// PooledCombinerKeys takes up to n combiners from the pool, puts them back
// and returns how many keys they held: in the slot map, or anywhere in the
// capacity of the groups buffer.
func PooledCombinerKeys(n int) int {
	cbs := make([]*combiner, n)
	keys := 0
	for i := range cbs {
		cbs[i] = combinerPool.Get().(*combiner)
		keys += len(cbs[i].slot)
		for _, kv := range cbs[i].out[:cap(cbs[i].out)] {
			if kv != (KV{}) {
				keys++
			}
		}
	}
	for _, cb := range cbs {
		combinerPool.Put(cb)
	}
	return keys
}

// PooledKeyIndexKeys takes up to n key indexes from the pool, puts them
// back and returns how many keys they held.
func PooledKeyIndexKeys(n int) int {
	var held []map[string]int32
	keys := 0
	for range n {
		if index, ok := keyIndexPool.Get().(map[string]int32); ok {
			held = append(held, index)
			keys += len(index)
		}
	}
	for _, index := range held {
		keyIndexPool.Put(index)
	}
	return keys
}

// KeyIDs returns the key ids a Select scans on the store, built if need
// be.
func KeyIDs(st *Store) []int32 {
	kc, _ := st.keyColumn()
	return kc.ids
}

// CloneStore returns a clone of the store, as Cluster.Clone makes one.
func CloneStore(st *Store) *Store { return st.clone() }

// ForceKeyHash has the store's key dictionary hash keys with hash, so that
// a test can make keys collide in the interning table. The dictionary —
// the one the store's clones and later writes share, until a Restore starts
// another — must hold no key yet.
func ForceKeyHash(st *Store, hash func(string) uint64) {
	d := st.content.dict
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tab.keys) > 0 {
		panic("engine: ForceKeyHash on a dictionary that holds keys")
	}
	d.hash = hash
}

// LayoutShape is what a layout decided: each executor's partitions, as
// index ranges of the records, and the records its map cost is charged
// per, and the largest assignment overhead.
type LayoutShape struct {
	Parts    [][][2]int
	Basis    []int
	Overhead float64
}

// Shape returns the layout's shape.
func (l *Layout) Shape() LayoutShape {
	out := LayoutShape{Overhead: l.AssignOverhead}
	for _, ex := range l.execs {
		var parts [][2]int
		for _, p := range ex.parts {
			parts = append(parts, [2]int{p.lo, p.hi})
		}
		out.Parts, out.Basis = append(out.Parts, parts), append(out.Basis, ex.basis)
	}
	return out
}

// RefLayout lays records out as before key ids: the assigner reads every
// record's hash under hash as a key of its own — a partition's KeyIDs are
// its records' positions into a table of their hashes — and an executor's
// distinct keys are counted through refDistinctKeys' open-addressed set of
// those hashes.
func RefLayout(records []KV, st Stage, hash func(string) uint64) (LayoutShape, error) {
	st = st.withDefaults()
	kc := &keyColumn{ids: make([]int32, len(records)), dict: keyEntries{hashes: make([]uint64, len(records))}}
	for i, r := range records {
		kc.ids[i], kc.dict.hashes[i] = int32(i), hash(r.Key)
	}
	execs, overhead, err := st.lay(len(records), records, kc)
	if err != nil {
		return LayoutShape{}, err
	}
	l := &Layout{AssignOverhead: overhead, execs: execs}
	for e := range l.execs {
		el := &l.execs[e]
		el.basis = el.records
		if st.CubeInput {
			el.basis = refDistinctKeys(records, kc.dict.hashes, el.parts, el.records)
		}
	}
	return l.Shape(), nil
}
