package engine

import "math/rand"

// Forward takes n records, chosen by RandomMover, out of the store: the
// source's half of a move, for benchmarks outside the package.
func Forward(st *Store, n int, rng *rand.Rand) error {
	return st.remove(st.choose(RandomMover{}, nil, n, rng))
}
