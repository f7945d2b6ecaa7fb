package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"bohr/internal/stats"
)

// handedOut is a record slice some route took out of a store, with the
// deep copy taken when it was handed out.
type handedOut struct {
	route     string
	recs, was []KV
}

// escapeKey is the derive key of the escape test's derived value: one per
// step, so each derive builds.
type escapeKey struct{ step int }

// keptLayout is a store's layout the escape test scans after later writes,
// with a layout of a deep copy of the records it was looked up over.
type keptLayout struct {
	l, fresh *Layout
	st       *Store
	version  uint64
}

// TestRemoveNeverWritesAHandedOutSlice drives seeded sequences of Adds and
// Select + Remove, under both movers, on a cluster and its clones,
// interleaved with every route by which a store's record slice leaves it
// for good — Records, Cluster.Clone and Restore — and with the reads that
// keep nothing of it: Store.Layout and derive. Each handed-out slice is
// deep-copied when it is handed out and must read the same after every
// later write, wherever the write compacts. The routes other than Records
// take the slice without calling Records, so each route's own mark is what
// the test checks. A kept layout scans as a layout of the copy until its
// store is written, and fails as a stale layout after; a derive build
// reads the store's records and leaves its escape bit as it found it.
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
		var layouts []keptLayout
		sum := &Query{Combine: OpSum}
		check := func(step int, write string) {
			t.Helper()
			for _, h := range held {
				if !slices.Equal(h.recs, h.was) {
					t.Fatalf("seed %d step %d: %s changed a slice handed out by %s", seed, step, write, h.route)
				}
			}
			layouts = slices.DeleteFunc(layouts, func(k keptLayout) bool {
				if k.st.Version() == k.version {
					if got, want := k.l.Scan(sum), k.fresh.Scan(sum); !slices.Equal(got.Inter, want.Inter) {
						t.Fatalf("seed %d step %d: after %s a kept layout of an unwritten store scans %v, want %v", seed, step, write, got.Inter, want.Inter)
					}
					return false
				}
				if err := scanErr(k.l); err == nil || !strings.Contains(err.Error(), "stale layout") {
					t.Fatalf("seed %d step %d: a layout scanned after %s wrote its store: %v, want a stale layout", seed, step, write, err)
				}
				return true
			})
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
				stage := Stage{Exec: Executors{1, 2}}
				l, _, err := st.Layout(stage)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewLayout(slices.Clone(st.recs), stage)
				if err != nil {
					t.Fatal(err)
				}
				layouts = append(layouts, keptLayout{l, fresh, st, st.Version()})
				check(step, "Store.Layout")
			default:
				if rng.Intn(2) == 0 {
					escaped := st.escaped.Load()
					n, _, _ := derive(st, escapeKey{step}, func(recs []KV) (int, error) {
						if !slices.Equal(recs, st.recs) {
							t.Fatalf("seed %d step %d: a derive build was handed other records than the store's", seed, step)
						}
						return len(recs), nil
					})
					if n != st.Len() || st.escaped.Load() != escaped {
						t.Fatalf("seed %d step %d: derive built over %d of %d records, escape bit %v → %v", seed, step, n, st.Len(), escaped, st.escaped.Load())
					}
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

// TestScanAfterWriteFailsAsStaleLayout: a store's layout reads the store's
// records at every scan, so once the store is written — an Add, a remove,
// a Restore — scanning it fails by name instead of reading records moved
// under it; a layout looked up again reads the new records.
func TestScanAfterWriteFailsAsStaleLayout(t *testing.T) {
	stage := Stage{Exec: Executors{Machines: 1, PerMachine: 2}}
	q := &Query{Combine: OpCount}
	writes := map[string]func(st *Store){
		"Add":     func(st *Store) { st.Add(KV{Key: "new", Val: 1}) },
		"remove":  func(st *Store) { removeAt(t, st, 0, 1) },
		"Restore": func(st *Store) { st.Restore([]KV{{Key: "r", Val: 1}}) },
	}
	for name, write := range writes {
		st := &Store{}
		for i := range 40 {
			st.Add(KV{Key: fmt.Sprintf("k%d", i%7), Val: 1})
		}
		l, _, err := st.Layout(stage)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Scan(q).Raw; got != 40 {
			t.Fatalf("%s: a fresh layout scans %d records, want 40", name, got)
		}
		write(st)
		if err := scanErr(l); err == nil || !strings.Contains(err.Error(), "stale layout") {
			t.Fatalf("after %s: Scan failed with %v, want a stale layout", name, err)
		}
		if l, _, err = st.Layout(stage); err != nil || l.Scan(q).Raw != st.Len() {
			t.Fatalf("after %s: a layout looked up again does not scan the store's %d records: %v", name, st.Len(), err)
		}
	}
}

// scanErr scans l and returns what the scan panicked with, nil when it
// scanned.
func scanErr(l *Layout) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	l.Scan(&Query{Combine: OpSum})
	return nil
}

// removeAt removes the records at the ascending positions at from st.
func removeAt(t *testing.T, st *Store, at ...int) {
	t.Helper()
	if err := st.remove(selection{store: st, gen: st.gen, at: at}); err != nil {
		t.Fatal(err)
	}
}

// TestLeasedSliceSurvivesForwards: a slice leased and not yet released
// reads the same after 50 forwards out of its store, each with an ingest
// Add beside it, all of which copy; after the release the next forward
// compacts the store's array in place.
func TestLeasedSliceSurvivesForwards(t *testing.T) {
	c := testClusterQ(2, 2)
	for i := range 400 {
		c.Data[0].Add("d", KV{Key: fmt.Sprintf("k%d%sc%d", i%13, KeySep, i%3), Val: float64(i)})
	}
	forward := func(step int) {
		t.Helper()
		c.Data[0].Add("d", KV{Key: fmt.Sprintf("k%d%sc0", step%13, KeySep), Val: float64(1000 + step)})
		spec := MoveSpec{Dataset: "d", Src: 0, Dst: 1, MB: c.MB(3)}
		if _, err := c.ApplyMoves([]MoveSpec{spec}, SimilarMover{View: fieldView}, rand.New(rand.NewSource(int64(step)))); err != nil {
			t.Fatal(err)
		}
	}
	forward(0) // the store's array is its own again: nothing was handed out
	st := c.Data[0].Store("d")
	leased, release := st.Lease()
	was := slices.Clone(leased)
	for step := 1; step <= 50; step++ {
		forward(step)
		if !slices.Equal(leased, was) {
			t.Fatalf("forward %d changed the leased slice", step)
		}
	}
	release()
	release() // idempotent: a second release ends no other lease
	if st.leases.Load() != 0 {
		t.Fatalf("%d leases out after the release", st.leases.Load())
	}
	forward(51) // its Add may have to grow the array a copying remove left exact
	before := unsafe.SliceData(st.recs)
	forward(52)
	if unsafe.SliceData(st.recs) != before {
		t.Fatal("after the release a forward moved the records to a new array")
	}
}

// TestReleasedLeaseRemoveAllocatesNoArray: a forward's remove out of a
// store whose lease was released allocates what one out of a store nobody
// ever leased does — no record array — and one while the lease is out
// allocates exactly one more, the copy.
func TestReleasedLeaseRemoveAllocatesNoArray(t *testing.T) {
	fresh := func() *Store {
		st := &Store{}
		for i := range 1000 {
			st.Add(KV{Key: fmt.Sprintf("k%d", i%10), Val: float64(i)})
		}
		return st
	}
	at := []int{0}
	removeOne := func(st *Store) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := st.remove(selection{store: st, gen: st.gen, at: at}); err != nil {
				t.Fatal(err)
			}
		})
	}
	never := removeOne(fresh())
	st := fresh()
	_, release := st.Lease()
	if leased := removeOne(st); leased != never+1 {
		t.Fatalf("a remove under a lease allocates %v times, want %v: a copy beside the %v of an unleased one", leased, never+1, never)
	}
	release()
	if released := removeOne(st); released != never {
		t.Fatalf("a remove after the release allocates %v times, an unleased one %v", released, never)
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
