package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bohr/internal/stats"
)

// handedOut is a record slice some route took out of a store, with the
// deep copy taken when it was handed out.
type handedOut struct {
	route     string
	recs, was []KV
}

// escapeKey is the derive key of the escape test's kept-records value: one
// per step, so each derive builds.
type escapeKey struct{ step int }

// TestRemoveNeverWritesAHandedOutSlice drives seeded sequences of Adds and
// Select + Remove, under both movers, on a cluster and its clones,
// interleaved with every route by which a store's record slice leaves it:
// Records, Cluster.Clone, Store.Layout (scanned), derive and Restore. Each
// handed-out slice is deep-copied when it is handed out and must read the
// same after every later write, wherever the write compacts. The routes
// other than Records take the slice without calling Records, so each
// route's own mark is what the test checks.
func TestRemoveNeverWritesAHandedOutSlice(t *testing.T) {
	const sites, steps = 3, 240
	for _, seed := range []int64{1, 2, 3} {
		rng := stats.NewRand(seed)
		next := 0
		record := func() KV {
			next++
			return KV{Key: fmt.Sprintf("a%d%sb%d", rng.Intn(9), KeySep, rng.Intn(4)), Val: float64(next)}
		}
		batch := func(n int) []KV {
			out := make([]KV, n)
			for i := range out {
				out[i] = record()
			}
			return out
		}
		clusters := []*Cluster{testClusterQ(sites, 2)}
		for i := 0; i < sites; i++ {
			clusters[0].Data[i].Add("d", batch(60)...)
		}
		var held []handedOut
		hold := func(route string, recs []KV) {
			held = append(held, handedOut{route, recs, slices.Clone(recs)})
		}
		check := func(step int, write string) {
			t.Helper()
			for _, h := range held {
				if !slices.Equal(h.recs, h.was) {
					t.Fatalf("seed %d step %d: %s changed a slice handed out by %s", seed, step, write, h.route)
				}
			}
		}
		movers := []Mover{SimilarMover{View: fieldView}, SimilarMover{DstTopK: 5}, RandomMover{}}
		for step := 0; step < steps; step++ {
			c := clusters[rng.Intn(len(clusters))]
			site := rng.Intn(sites)
			st := c.Data[site].Store("d")
			switch op := rng.Intn(10); {
			case op < 3:
				c.Data[site].Add("d", batch(1+rng.Intn(12))...)
				check(step, "Add")
			case op < 6:
				dst := (site + 1 + rng.Intn(sites-1)) % sites
				m := movers[rng.Intn(len(movers))]
				spec := MoveSpec{Dataset: "d", Src: site, Dst: dst, MB: c.MB(1 + rng.Intn(st.Len()/2+1))}
				if _, err := c.ApplyMoves([]MoveSpec{spec}, m, rand.New(rand.NewSource(int64(step)))); err != nil {
					t.Fatal(err)
				}
				check(step, fmt.Sprintf("Remove under %T", m))
			case op == 6:
				hold("Records", st.Records())
			case op == 7:
				if len(clusters) < 4 {
					cl := c.Clone()
					hold("Cluster.Clone (source)", st.recs)
					hold("Cluster.Clone (clone)", cl.Data[site].Store("d").recs)
					clusters = append(clusters, cl)
				}
			case op == 8:
				l, _, err := st.Layout(Stage{Exec: Executors{1, 2}})
				if err != nil {
					t.Fatal(err)
				}
				l.Scan(&Query{Combine: OpSum})
				hold("Store.Layout", l.records)
			default:
				if rng.Intn(2) == 0 {
					kept, _, _ := derive(st, escapeKey{step}, func(recs []KV) ([]KV, error) { return recs, nil })
					hold("derive", kept)
				} else {
					recs := batch(20 + rng.Intn(40))
					hold("Restore", recs)
					c.Data[site].Restore("d", recs)
				}
			}
		}
		t.Logf("seed %d: %d slices handed out over %d steps", seed, len(held), steps)
	}
}

// TestRemoveCompactsInPlaceWhenUnshared checks where remove leaves the kept
// records: in the store's own array when nobody was handed it, in a new one
// after Records handed it out, and in a new one when the kept records would
// fill less than half the array.
func TestRemoveCompactsInPlaceWhenUnshared(t *testing.T) {
	fresh := func() *Store {
		st := &Store{}
		for i := 0; i < 100; i++ {
			st.Add(KV{Key: fmt.Sprintf("k%d", i%10), Val: float64(i)})
		}
		return st
	}
	removeFirst := func(st *Store, n int) (before, after *KV) {
		before = &st.recs[:1][0]
		at := make([]int, n)
		for i := range at {
			at[i] = i
		}
		if err := st.remove(selection{store: st, gen: st.gen, at: at}); err != nil {
			t.Fatal(err)
		}
		return before, &st.recs[:1][0]
	}

	st := fresh()
	if before, after := removeFirst(st, 10); before != after {
		t.Fatal("an unshared Remove moved the records to a new array")
	}
	if want := (KV{Key: "k0", Val: 10}); st.recs[0] != want || len(st.recs) != 90 {
		t.Fatalf("after compacting: first record %v of %d, want %v of 90", st.recs[0], len(st.recs), want)
	}
	if tail := st.recs[len(st.recs) : len(st.recs)+10]; slices.ContainsFunc(tail, func(r KV) bool { return r != KV{} }) {
		t.Fatal("compacting in place left records in the vacated tail")
	}

	st = fresh()
	held := st.Records()
	if before, after := removeFirst(st, 10); before == after {
		t.Fatal("a Remove after Records compacted the handed-out array")
	}
	if held[0].Val != 0 {
		t.Fatal("the handed-out slice changed")
	}
	if before, after := removeFirst(st, 10); before != after {
		t.Fatal("the copy's own array was not compacted in place by the next Remove")
	}

	st = fresh()
	if before, after := removeFirst(st, cap(st.recs)-cap(st.recs)/2+1); before == after {
		t.Fatal("a Remove keeping less than half the capacity kept the array")
	}
}
