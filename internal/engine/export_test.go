package engine

import (
	"fmt"
	"slices"
	"testing"

	"bohr/internal/stats"
)

// WriteSequence runs seed's sequence of writes on one store — Adds of
// known, brand-new and foreign-width keys (the rest have three fields),
// Removes chosen by RandomMover and SimilarMover, a clone writing beside its
// source, a run of writes long enough to drop a carry, and a Restore — and
// after every step calls build on the store the step wrote. build derives
// state the store carries across writes and returns how many records it
// derived afresh; WriteSequence holds that to what each step must carry.
func WriteSequence(t *testing.T, seed int64, build func(step string, st *Store) (fresh int)) {
	t.Helper()
	const width = 3
	similar := SimilarMover{View: NewView(width, 0)}
	rng := stats.NewRand(seed)
	newValues := 0
	key := func() string {
		switch r := rng.Intn(20); {
		case r == 0: // foreign: another width
			return fmt.Sprintf("k%d%sx", rng.Intn(9), KeySep)
		case r == 1: // a value no dictionary holds yet
			newValues++
			return fmt.Sprintf("k%d%snew%d%sh%d", rng.Intn(9), KeySep, newValues, KeySep, rng.Intn(4))
		default:
			return fmt.Sprintf("k%d%sc%d%sh%d", rng.Intn(9), KeySep, rng.Intn(5), KeySep, rng.Intn(4))
		}
	}
	add := func(st *Store, n int) {
		recs := make([]KV, n)
		for i := range recs {
			recs[i] = KV{Key: key(), Val: float64(i)}
		}
		st.Add(recs...)
	}
	remove := func(st *Store, n int) {
		var sel Selection
		if rng.Intn(2) == 0 {
			sel = st.Select(RandomMover{}, st, n, rng)
		} else {
			sel = st.Select(similar, DstCells{fmt.Sprintf("k%d", rng.Intn(9)): 1}, n, rng)
		}
		if err := st.Remove(sel); err != nil {
			t.Fatal(err)
		}
	}
	write := func(st *Store) {
		if rng.Intn(2) == 0 || len(st.recs) < 40 {
			add(st, 1+rng.Intn(30))
		} else {
			remove(st, 1+rng.Intn(len(st.recs)/8))
		}
	}

	st := &Store{}
	add(st, 300)
	if n := build("first build", st); n != 300 {
		t.Fatalf("seed %d: the first build derived %d of 300 records", seed, n)
	}
	carriedBuilds := 0
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("step %d", step)
		for w := rng.Intn(3); w >= 0; w-- {
			write(st)
		}
		if step%10 == 5 {
			// A clone writes beside its source, then the source writes.
			cl := st.clone()
			write(cl)
			write(cl)
			build(name+" clone", cl)
			write(st)
		}
		if build(name, st) < len(st.recs) {
			carriedBuilds++
		}
	}
	if carriedBuilds < 20 {
		t.Fatalf("seed %d: only %d of 40 builds carried", seed, carriedBuilds)
	}

	// Writes that move more records than the last build described drop
	// the carry.
	held := len(st.recs)
	for moved := 0; moved <= held; moved += 10 {
		add(st, 5)
		remove(st, 5)
	}
	if n := build("after a long run of writes", st); n != len(st.recs) {
		t.Fatalf("seed %d: after the carry's drop the build derived %d of %d records", seed, n, len(st.recs))
	}

	recs := slices.Clone(st.recs)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	st.Restore(recs)
	if n := build("after a Restore", st); n != len(recs) {
		t.Fatalf("seed %d: the build after a Restore derived %d of %d records", seed, n, len(recs))
	}
	write(st)
	build("after a Restore and a write", st)
}

// KeyHashes builds the store's key-hash column as a layout that reads keys
// does, and returns it with how many records the build hashed: those its
// content's carry did not describe. Call it before anything else builds
// the column for the content.
func KeyHashes(s *Store) (hashes []uint64, fresh int) {
	fresh = len(s.recs)
	s.content.mu.Lock()
	for _, c := range s.content.carry {
		if c.key == (hashesKey{}) {
			_, live, _ := c.plan(0)
			fresh -= live
		}
	}
	s.content.mu.Unlock()
	return s.keyHashes(), fresh
}

// Exec is one executor of a layout: the records it scans, in scan order,
// and what its modeled map cost is charged per.
type Exec struct {
	Records []KV
	Basis   int
}

// Execs returns the layout's executors in (machine, executor) order.
func (l *Layout) Execs() []Exec {
	out := make([]Exec, len(l.execs))
	for e, ex := range l.execs {
		for _, p := range ex.parts {
			out[e].Records = append(out[e].Records, l.src.recs[p.lo:p.hi]...)
		}
		out[e].Basis = ex.basis
	}
	return out
}
