package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bohr/internal/stats"
	"bohr/internal/wan"
)

// countKey is a derive key of these tests; the derived value is the number
// of records the build saw.
type countKey struct{}

func countRecords(recs []KV) (int, error) { return len(recs), nil }

// slackStore returns a store whose record slice has spare capacity, the
// state a site is in after a move took records out of it: n records, of
// which the first drop were removed again.
func slackStore(t *testing.T, n, drop int) *Store {
	t.Helper()
	st := &Store{}
	for i := 0; i < n; i++ {
		st.Add(KV{Key: fmt.Sprintf("k%d%sc%d", i%7, KeySep, i%3), Val: float64(i)})
	}
	if err := st.remove(st.choose(RandomMover{}, st, drop, stats.NewRand(1))); err != nil {
		t.Fatal(err)
	}
	if cap(st.recs) == len(st.recs) {
		t.Fatal("setup: the store has no spare capacity to alias through")
	}
	return st
}

// firstField is what the tests' similarity-aware view, fieldView, makes of
// their two-field keys.
func firstField(key string) string { return key[:strings.Index(key, KeySep)] }

var fieldView = NewView(2, 0)

// liveCells returns the store's cell counts as its index has them.
func liveCells(st *Store) map[string]int {
	ix := st.index(fieldView)
	out := map[string]int{}
	for id, n := range ix.count {
		if n > 0 {
			out[ix.keys[id]] = n
		}
	}
	return out
}

// checkStore compares a store's records, indexed cell counts and memoized
// record count against the expected record sequence.
func checkStore(t *testing.T, name string, st *Store, want []KV) {
	t.Helper()
	if !slices.Equal(st.Records(), want) {
		t.Fatalf("%s: records diverged from the expected sequence (%d vs %d records)", name, len(st.Records()), len(want))
	}
	cells := map[string]int{}
	for _, r := range want {
		cells[firstField(r.Key)]++
	}
	if got := liveCells(st); fmt.Sprint(got) != fmt.Sprint(cells) {
		t.Fatalf("%s: indexed cells %v, want %v", name, got, cells)
	}
	if n, _, _ := derive(st, countKey{}, countRecords); n != len(want) {
		t.Fatalf("%s: memoized record count %d, want %d", name, n, len(want))
	}
}

// TestStoreCloneAliasing mutates a store and its clone, which share one
// record slice with spare capacity, one content and one cell index, in
// both orders: neither may see the other's records, cell counts or memo,
// and every mutation must yield a fresh content.
func TestStoreCloneAliasing(t *testing.T) {
	extraA := []KV{{Key: "k1" + KeySep + "a", Val: 1}, {Key: "new" + KeySep + "a", Val: 2}}
	extraB := []KV{{Key: "k2" + KeySep + "b", Val: 3}}
	type mutation struct {
		name  string
		apply func(t *testing.T, st *Store, want []KV) []KV
	}
	add := func(extra []KV) mutation {
		return mutation{"add", func(_ *testing.T, st *Store, want []KV) []KV {
			st.Add(extra...)
			return append(slices.Clone(want), extra...)
		}}
	}
	remove := mutation{"remove", func(t *testing.T, st *Store, want []KV) []KV {
		sel := st.choose(SimilarMover{View: fieldView}, DstCells{"k3": 1}, 5, nil)
		if err := st.remove(sel); err != nil {
			t.Fatal(err)
		}
		kept := slices.Clone(want)
		for k := len(sel.at) - 1; k >= 0; k-- {
			kept = slices.Delete(kept, sel.at[k], sel.at[k]+1)
		}
		return kept
	}}
	for _, indexed := range []bool{false, true} {
		for _, ms := range [][2]mutation{{add(extraA), add(extraB)}, {add(extraA), remove}, {remove, add(extraB)}, {remove, remove}} {
			for _, sourceFirst := range []bool{true, false} {
				name := fmt.Sprintf("indexed=%v/%s-%s/sourceFirst=%v", indexed, ms[0].name, ms[1].name, sourceFirst)
				src := slackStore(t, 40, 8)
				if indexed {
					liveCells(src) // the clone adopts the source's index
				}
				base := slices.Clone(src.Records())
				cl := src.clone()
				if cl.content != src.content || cl.Version() != src.Version() {
					t.Fatalf("%s: a clone must start at its source's content and version", name)
				}
				if _, hit, _ := derive(src, countKey{}, countRecords); hit {
					t.Fatalf("%s: first lookup on a fresh content hit", name)
				}
				if _, hit, _ := derive(cl, countKey{}, countRecords); !hit {
					t.Fatalf("%s: the clone does not share its source's memo", name)
				}
				first, second := src, cl
				if !sourceFirst {
					first, second = cl, src
				}
				shared := src.content
				wantFirst := ms[0].apply(t, first, base)
				if first.content == shared || second.content != shared {
					t.Fatalf("%s: a mutation must replace the mutated store's content and only that", name)
				}
				checkStore(t, name+" first", first, wantFirst)
				checkStore(t, name+" second (untouched)", second, base)
				wantSecond := ms[1].apply(t, second, base)
				if second.content == shared || second.content == first.content {
					t.Fatalf("%s: the second mutation did not yield a fresh content", name)
				}
				checkStore(t, name+" first (after second)", first, wantFirst)
				checkStore(t, name+" second", second, wantSecond)
			}
		}
	}
}

// TestStoreContentFreshOnEveryMutation pins the memo contract: the same
// content serves a derived value again, any Add, Remove or Restore — even
// one that installs equal records — leaves it behind, and a store that
// never held a record memoizes nothing.
func TestStoreContentFreshOnEveryMutation(t *testing.T) {
	var none *Store
	if n, hit, err := derive(none, countKey{}, countRecords); n != 0 || hit || err != nil {
		t.Fatalf("nil store: got %d, %v, %v", n, hit, err)
	}
	st := &Store{}
	if _, hit, _ := derive(st, countKey{}, countRecords); hit {
		t.Fatal("an empty store has no content to memoize on")
	}
	if _, hit, _ := derive(st, countKey{}, countRecords); hit {
		t.Fatal("an empty store has no content to memoize on")
	}
	mutations := map[string]func(){
		"add":     func() { st.Add(KV{Key: "a" + KeySep + "b", Val: 1}) },
		"remove":  func() { _ = st.remove(st.choose(RandomMover{}, st, 1, stats.NewRand(1))) },
		"restore": func() { st.Restore(slices.Clone(st.Records())) },
	}
	st.Add(KV{Key: "a" + KeySep + "b", Val: 1}, KV{Key: "c" + KeySep + "d", Val: 2})
	for _, name := range []string{"add", "remove", "restore"} {
		if _, hit, _ := derive(st, countKey{}, countRecords); hit {
			t.Fatalf("before %s: first lookup hit", name)
		}
		if n, hit, _ := derive(st, countKey{}, countRecords); !hit || n != len(st.Records()) {
			t.Fatalf("before %s: second lookup got %d, hit=%v", name, n, hit)
		}
		before := st.content
		mutations[name]()
		if st.content == before {
			t.Fatalf("%s kept the content", name)
		}
	}
	// Other keys are other values.
	type otherKey struct{}
	if _, hit, _ := derive(st, otherKey{}, countRecords); hit {
		t.Fatal("a new key hit")
	}
}

// TestStoreDeriveSingleflight has many goroutines miss on one key of one
// content at once, through different clones: the build runs once, exactly
// one caller is told it missed, and all see its value.
func TestStoreDeriveSingleflight(t *testing.T) {
	st := slackStore(t, 64, 4)
	var builds, misses atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		cl := st.clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			n, hit, err := derive(cl, countKey{}, func(recs []KV) (int, error) {
				builds.Add(1)
				return len(recs), nil
			})
			if err != nil || n != 60 {
				t.Errorf("got %d, %v", n, err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("builds = %d, misses = %d, want 1 and 1", builds.Load(), misses.Load())
	}
}

// TestStoreDeriveError checks a failed build is reported and not kept.
func TestStoreDeriveError(t *testing.T) {
	st := slackStore(t, 8, 1)
	boom := errors.New("boom")
	if _, _, err := derive(st, countKey{}, func([]KV) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n, hit, err := derive(st, countKey{}, countRecords); err != nil || hit || n != 7 {
		t.Fatalf("after a failed build: got %d, hit=%v, %v; want a rebuild", n, hit, err)
	}
}

// TestClusterCloneAllocsIndependentOfRecords is the O(stores) guard: a
// clone allocates per site and per store, never per record.
func TestClusterCloneAllocsIndependentOfRecords(t *testing.T) {
	top, err := wan.NewTopology([]string{"a", "b", "c"}, []float64{1, 1, 1}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(records int) float64 {
		c, err := NewCluster(top, 1, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.N(); i++ {
			for _, ds := range []string{"x", "y"} {
				for r := 0; r < records; r++ {
					c.Data[i].Add(ds, KV{Key: fmt.Sprintf("k%d%sc", r%50, KeySep), Val: 1})
				}
			}
		}
		// Index one store, so the clone also adopts an index.
		c.Data[0].Store("x").index(fieldView)
		return testing.AllocsPerRun(20, func() { c.Clone() })
	}
	small, large := allocs(10), allocs(5000)
	if large > small {
		t.Fatalf("Clone allocated %v times at 5000 records per store, %v at 10", large, small)
	}
}
