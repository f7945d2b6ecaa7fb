package cache

import (
	"fmt"
	"math/rand"
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

// refStore is the eviction order before the victim heap: each victim the
// minimum of one scan over the live entries, by stamp, then key.
type refStore struct {
	caps      Caps
	vals      map[string]int
	used      map[string]uint64
	bytes     int64
	clock     uint64
	evictions int
}

func (r *refStore) put(k string, v int) {
	r.bytes += int64(v - r.vals[k])
	r.vals[k], r.used[k] = v, r.clock
}

func (r *refStore) drop(k string) {
	if v, ok := r.vals[k]; ok {
		r.bytes -= int64(v)
		delete(r.vals, k)
		delete(r.used, k)
	}
}

func (r *refStore) advance() {
	r.clock++
	for len(r.vals) > 0 && (r.caps.Entries > 0 && len(r.vals) > r.caps.Entries || r.caps.Bytes > 0 && r.bytes > r.caps.Bytes) {
		victim, first := "", true
		for k, u := range r.used {
			if first || u < r.used[victim] || u == r.used[victim] && k < victim {
				victim, first = k, false
			}
		}
		r.drop(victim)
		r.evictions++
	}
}

// TestVictimHeapMatchesScan runs random Get, Put, Delete and Advance
// histories, under entry caps, byte caps and both, against refStore: after
// every step the live entries, their values, the resident bytes and the
// evictions must agree, and every entry must sit where the heap says.
func TestVictimHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial, caps := range []Caps{{Entries: 8}, {Bytes: 60}, {Entries: 12, Bytes: 90}, {Entries: 1}} {
		s := sized(caps)
		ref := &refStore{caps: caps, vals: map[string]int{}, used: map[string]uint64{}}
		for step := 0; step < 3000; step++ {
			k := fmt.Sprintf("k%02d", rng.Intn(30))
			switch op := rng.Intn(10); {
			case op < 3:
				if _, ok := s.Get(k); ok {
					ref.used[k] = ref.clock
				}
			case op < 7:
				v := 1 + rng.Intn(12)
				s.Put(k, v)
				ref.put(k, v)
			case op < 8:
				s.Delete(k)
				ref.drop(k)
			default:
				s.Advance()
				ref.advance()
			}
			want := make([]string, 0, len(ref.vals))
			for k := range ref.vals {
				want = append(want, k)
			}
			sort.Strings(want)
			if got := s.keys(); !reflect.DeepEqual(got, want) || s.resident() != ref.bytes || s.evictions() != ref.evictions {
				t.Fatalf("trial %d step %d: keys %v, %d B, %d evictions; the scan's %v, %d B, %d", trial, step,
					got, s.resident(), s.evictions(), want, ref.bytes, ref.evictions)
			}
			for _, k := range want {
				if v, _ := s.Peek(k); v != ref.vals[k] {
					t.Fatalf("trial %d step %d: %s = %d, want %d", trial, step, k, v, ref.vals[k])
				}
			}
			for i, e := range s.victims {
				if e.at != i || i > 0 && before(e, s.victims[(i-1)/2]) {
					t.Fatalf("trial %d step %d: heap entry %d (at %d) out of place", trial, step, i, e.at)
				}
			}
		}
	}
}
