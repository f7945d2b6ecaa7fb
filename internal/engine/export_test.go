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
