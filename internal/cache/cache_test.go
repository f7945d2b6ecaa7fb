package cache

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bohr/internal/obs"
)

// sized builds a store whose entries weigh their value in bytes, with a
// collector so tests can read the eviction counter.
func sized(caps Caps) *Store[string, int] {
	return New[string, int]("test.store", caps, obs.NewCollector(), func(k string, v int) int64 { return int64(v) })
}

// keys returns the live keys in ascending order.
func (s *Store[K, V]) keys() []K {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]K, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resident returns the summed size estimates of live entries.
func (s *Store[K, V]) resident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// evictions reads the store's eviction counter off its collector.
func (s *Store[K, V]) evictions() int {
	return int(s.col.MetricsSnapshot().Counters[s.name+".evictions"])
}

// TestLRUEvictionOrder pins the eviction contract: least-recent stamp
// first, key order breaking ties, enforcement only at Advance.
func TestLRUEvictionOrder(t *testing.T) {
	s := sized(Caps{Entries: 2})
	s.Put("a", 1)
	s.Put("b", 1)
	s.Put("c", 1) // over cap, but no eviction until Advance
	if s.Len() != 3 {
		t.Fatalf("Put evicted early: len=%d", s.Len())
	}
	s.Advance() // all three share stamp 0 -> "a" dies on key order
	if got := s.keys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("keys after advance = %v, want [b c]", got)
	}
	if s.evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.evictions())
	}

	// Touch "b" this round, add "d": "c" is now the coldest.
	if _, ok := s.Get("b"); !ok {
		t.Fatal("b missing")
	}
	s.Put("d", 1)
	s.Advance()
	if got := s.keys(); !reflect.DeepEqual(got, []string{"b", "d"}) {
		t.Fatalf("keys after second advance = %v, want [b d]", got)
	}
}

// TestByteCap checks the byte-dimension limit and the byte accounting
// across Put/replace/Delete.
func TestByteCap(t *testing.T) {
	s := sized(Caps{Bytes: 100})
	s.Put("a", 40)
	s.Put("b", 40)
	if s.resident() != 80 {
		t.Fatalf("bytes = %d, want 80", s.resident())
	}
	s.Put("a", 50) // replace re-estimates
	if s.resident() != 90 {
		t.Fatalf("bytes after replace = %d, want 90", s.resident())
	}
	s.Put("c", 40) // 130 total, over the 100 cap
	s.Advance()    // a and b share stamp 0; evicting "a" (50) gets to 80
	if s.resident() > 100 {
		t.Fatalf("bytes %d still over cap", s.resident())
	}
	if got := s.keys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("keys = %v, want [b c]", got)
	}
	s.Delete("b")
	if s.resident() != 40 || s.Len() != 1 {
		t.Fatalf("after delete: bytes=%d len=%d", s.resident(), s.Len())
	}
}

// TestUnlimitedNeverEvicts checks Unlimited() caps never evict.
func TestUnlimitedNeverEvicts(t *testing.T) {
	s := sized(Unlimited())
	for i := 0; i < 500; i++ {
		s.Put(fmt.Sprintf("k%03d", i), 1000)
		s.Advance()
	}
	if s.Len() != 500 || s.evictions() != 0 {
		t.Fatalf("len=%d evictions=%d, want 500/0", s.Len(), s.evictions())
	}
}

// TestDeterministicAcrossAccessOrder is the heart of the logical-clock
// design: two stores seeing the same per-round access *sets* in
// different within-round orders evict identically.
func TestDeterministicAcrossAccessOrder(t *testing.T) {
	run := func(perm []string) []string {
		s := sized(Caps{Entries: 3})
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			s.Put(k, 1)
		}
		s.Advance()
		for _, k := range perm { // same set, different order
			s.Get(k)
		}
		s.Put("f", 1)
		s.Advance()
		return s.keys()
	}
	want := run([]string{"c", "d"})
	if got := run([]string{"d", "c"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("access order changed eviction: %v vs %v", got, want)
	}
}

// TestCollectorLevels checks the additive level counters, including two
// stores sharing one name.
func TestCollectorLevels(t *testing.T) {
	col := obs.NewCollector()
	s := New[string, int]("lvl", Caps{Entries: 1}, col, func(_ string, v int) int64 { return int64(v) })
	s.Put("a", 10)
	s.Put("b", 20)
	s.Advance()
	snap := col.MetricsSnapshot()
	if snap.Counters["lvl.entries"] != 1 || snap.Counters["lvl.bytes"] != 20 || snap.Counters["lvl.evictions"] != 1 {
		t.Fatalf("levels = %v/%v/%v, want 1/20/1",
			snap.Counters["lvl.entries"], snap.Counters["lvl.bytes"], snap.Counters["lvl.evictions"])
	}

	// A second store under the same name aggregates additively.
	s2 := New[string, int]("lvl", Unlimited(), col, func(_ string, v int) int64 { return int64(v) })
	s2.Put("x", 5)
	snap = col.MetricsSnapshot()
	if snap.Counters["lvl.entries"] != 2 || snap.Counters["lvl.bytes"] != 25 {
		t.Fatalf("shared-name levels = %v/%v, want 2/25",
			snap.Counters["lvl.entries"], snap.Counters["lvl.bytes"])
	}
}

// TestNilStore checks every method on the nil no-op store.
func TestNilStore(t *testing.T) {
	var s *Store[string, int]
	s.Put("a", 1)
	s.Delete("a")
	s.Advance()
	if _, ok := s.Get("a"); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.Peek("a"); ok {
		t.Fatal("nil store peek hit")
	}
	if s.Len() != 0 {
		t.Fatal("nil store not empty")
	}
}

// TestPeekDoesNotTouch checks Peek leaves recency alone: a peeked-only
// entry still dies first.
func TestPeekDoesNotTouch(t *testing.T) {
	s := sized(Caps{Entries: 2})
	s.Put("a", 1)
	s.Put("b", 1)
	s.Advance()
	s.Peek("a") // no stamp
	s.Get("b")  // stamp
	s.Put("c", 1)
	s.Advance()
	if got := s.keys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("keys = %v, want [b c]", got)
	}
}

// TestConcurrentStress hammers one store from many goroutines with a
// sequential Advance between rounds; run with -race. The store must be
// within its cap after every round.
func TestConcurrentStress(t *testing.T) {
	s := sized(Caps{Entries: 16, Bytes: 1 << 20})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := fmt.Sprintf("k%02d", (g*7+i)%40)
					if _, ok := s.Get(k); !ok {
						s.Put(k, 8)
					}
					s.Peek(k)
				}
			}(g)
		}
		wg.Wait()
		s.Advance() // sequential round boundary
		if s.Len() > 16 {
			t.Fatalf("round %d: len %d over cap after advance", round, s.Len())
		}
	}
	if s.evictions() == 0 {
		t.Fatal("stress never evicted")
	}
}
