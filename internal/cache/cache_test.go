package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/obs"
)

// counted builds a cache with a collector, so tests can read the eviction
// counter.
func counted(caps Caps) *Results { return New(caps, obs.NewCollector()) }

// rowsOf returns n rows with empty keys: an entry holding them under a
// key of length l weighs l + 8n bytes.
func rowsOf(n int) []engine.KV { return make([]engine.KV, n) }

// keys returns the live keys in ascending order.
func (r *Results) keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for k := range r.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resident returns the summed size estimates of live entries.
func (r *Results) resident() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// evictions reads the cache's eviction counter off its collector.
func (r *Results) evictions() int {
	return int(r.col.MetricsSnapshot().Counters[metricPrefix+".evictions"])
}

// filed returns each dataset's filed keys in ascending order, and fails
// the test when a filed entry is not the live entry under its key, sits
// under a dataset it did not read, or a live entry is filed nowhere.
func (r *Results) filed(t *testing.T) map[string][]string {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out, n := map[string][]string{}, 0
	for ds, file := range r.files {
		if len(file) == 0 {
			t.Fatalf("dataset %q keeps an empty file", ds)
		}
		for k, e := range file {
			if r.entries[k] != e || e.dataset != ds {
				t.Fatalf("dataset %q files %q, which is not live under it", ds, k)
			}
			out[ds] = append(out[ds], k)
		}
		sort.Strings(out[ds])
		n += len(file)
	}
	if n != len(r.entries) {
		t.Fatalf("%d entries filed, %d live", n, len(r.entries))
	}
	return out
}

// TestLRUEvictionOrder pins the eviction contract: least-recent stamp
// first, key order breaking ties, one clock round per Insert.
func TestLRUEvictionOrder(t *testing.T) {
	r := counted(Caps{Entries: 2})
	r.Insert("a", "d", rowsOf(1))
	r.Insert("b", "d", rowsOf(1))
	r.Get("b") // a and b now share this round's stamp
	r.Get("a")
	r.Insert("c", "d", rowsOf(1)) // a, b and c share a stamp -> "a" dies on key order
	if got := r.keys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("keys after the third insert = %v, want [b c]", got)
	}
	if r.evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", r.evictions())
	}

	// Touch "b" this round, add "d": "c" is now the coldest.
	if _, ok := r.Get("b"); !ok {
		t.Fatal("b missing")
	}
	r.Insert("d", "d", rowsOf(1))
	if got := r.keys(); !reflect.DeepEqual(got, []string{"b", "d"}) {
		t.Fatalf("keys after the fourth insert = %v, want [b d]", got)
	}
}

// TestByteCap checks the byte-dimension limit and the byte accounting
// across insert, replace and invalidation.
func TestByteCap(t *testing.T) {
	r := counted(Caps{Bytes: 100})
	r.Insert("a", "x", rowsOf(4)) // 33 B
	r.Insert("b", "y", rowsOf(4)) // 33 B
	if r.resident() != 66 {
		t.Fatalf("bytes = %d, want 66", r.resident())
	}
	r.Insert("a", "x", rowsOf(6)) // replace re-estimates: 49 B
	if r.resident() != 82 {
		t.Fatalf("bytes after replace = %d, want 82", r.resident())
	}
	r.Insert("c", "x", rowsOf(4)) // 115 B total, over the 100 cap: "b" is the coldest
	if r.resident() > 100 {
		t.Fatalf("bytes %d still over cap", r.resident())
	}
	if got := r.keys(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("keys = %v, want [a c]", got)
	}
	if n := r.InvalidateDataset("x"); n != 2 || r.resident() != 0 || r.Len() != 0 {
		t.Fatalf("after invalidation: dropped %d, bytes=%d len=%d", n, r.resident(), r.Len())
	}
}

// TestUnlimitedNeverEvicts checks Unlimited() caps never evict.
func TestUnlimitedNeverEvicts(t *testing.T) {
	r := counted(Unlimited())
	for i := 0; i < 500; i++ {
		r.Insert(fmt.Sprintf("k%03d", i), "d", rowsOf(100))
	}
	if r.Len() != 500 || r.evictions() != 0 {
		t.Fatalf("len=%d evictions=%d, want 500/0", r.Len(), r.evictions())
	}
}

// TestDeterministicAcrossAccessOrder is the heart of the logical-clock
// design: two caches seeing the same per-round access *sets* in
// different within-round orders evict identically.
func TestDeterministicAcrossAccessOrder(t *testing.T) {
	run := func(perm []string) []string {
		r := counted(Caps{Entries: 3})
		for _, k := range []string{"a", "b", "c", "d", "e"} {
			r.Insert(k, "d", rowsOf(1))
		}
		for _, k := range perm { // same set, different order
			r.Get(k)
		}
		r.Insert("f", "d", rowsOf(1))
		r.Insert("g", "d", rowsOf(1))
		return r.keys()
	}
	want := run([]string{"c", "d"})
	if got := run([]string{"d", "c"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("access order changed eviction: %v vs %v", got, want)
	}
}

// TestCollectorLevels checks the additive level counters, including two
// caches sharing one collector.
func TestCollectorLevels(t *testing.T) {
	col := obs.NewCollector()
	r := New(Caps{Entries: 1}, col)
	r.Insert("a", "d", rowsOf(1)) // 9 B
	r.Insert("b", "d", rowsOf(2)) // 17 B, evicts "a"
	snap := col.MetricsSnapshot()
	if snap.Counters["serve.results.entries"] != 1 || snap.Counters["serve.results.bytes"] != 17 || snap.Counters["serve.results.evictions"] != 1 {
		t.Fatalf("levels = %v/%v/%v, want 1/17/1",
			snap.Counters["serve.results.entries"], snap.Counters["serve.results.bytes"], snap.Counters["serve.results.evictions"])
	}

	// A second cache on the same collector aggregates additively.
	New(Unlimited(), col).Insert("x", "d", rowsOf(0)) // 1 B
	snap = col.MetricsSnapshot()
	if snap.Counters["serve.results.entries"] != 2 || snap.Counters["serve.results.bytes"] != 18 {
		t.Fatalf("shared levels = %v/%v, want 2/18",
			snap.Counters["serve.results.entries"], snap.Counters["serve.results.bytes"])
	}
}

// TestNilStore checks every method on the nil no-op cache.
func TestNilStore(t *testing.T) {
	var r *Results
	r.Insert("a", "d", rowsOf(1))
	if _, ok := r.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	if n := r.InvalidateDataset("d"); n != 0 {
		t.Fatalf("nil cache dropped %d", n)
	}
	if r.Len() != 0 {
		t.Fatal("nil cache not empty")
	}
}

// TestPeekDoesNotTouch checks the reads other than Get — Len, and
// invalidating another dataset — leave recency alone: the coldest entry
// still dies first.
func TestPeekDoesNotTouch(t *testing.T) {
	r := counted(Caps{Entries: 3})
	r.Insert("a", "x", rowsOf(1))
	r.Insert("b", "x", rowsOf(1))
	r.Insert("o", "y", rowsOf(1))
	r.Get("a") // stamp: "b" is now the coldest
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if n := r.InvalidateDataset("y"); n != 1 {
		t.Fatalf("invalidation dropped %d, want 1", n)
	}
	r.Insert("c", "x", rowsOf(1))
	r.Insert("d", "x", rowsOf(1))
	if got := r.keys(); !reflect.DeepEqual(got, []string{"a", "c", "d"}) {
		t.Fatalf("keys = %v, want [a c d]", got)
	}
}

// TestConcurrentStress hammers one cache from many goroutines with Get,
// Insert and InvalidateDataset interleaved; run with -race. The cache
// must be within its cap and its dataset files must match the live
// entries after every round.
func TestConcurrentStress(t *testing.T) {
	r := counted(Caps{Entries: 16, Bytes: 1 << 20})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := fmt.Sprintf("k%02d", (g*7+i)%40)
					ds := fmt.Sprintf("d%d", (g*7+i)%40%3)
					if _, ok := r.Get(k); !ok {
						r.Insert(k, ds, rowsOf(1))
					}
					if i%10 == g {
						r.InvalidateDataset(ds)
					}
				}
			}(g)
		}
		wg.Wait()
		if r.Len() > 16 {
			t.Fatalf("round %d: len %d over cap", round, r.Len())
		}
		r.filed(t)
	}
	if r.evictions() == 0 {
		t.Fatal("stress never evicted")
	}
}

// refCache is the eviction order before the victim heap: each victim the
// minimum of one scan over the live entries, by stamp, then key; and
// invalidation a scan for the entries that read the dataset.
type refCache struct {
	caps      Caps
	size      map[string]int64
	dataset   map[string]string
	used      map[string]uint64
	bytes     int64
	clock     uint64
	evictions int
}

func (c *refCache) insert(k, ds string, size int64) {
	c.drop(k)
	c.size[k], c.dataset[k], c.used[k] = size, ds, c.clock
	c.bytes += size
	c.clock++
	for len(c.size) > 0 && (c.caps.Entries > 0 && len(c.size) > c.caps.Entries || c.caps.Bytes > 0 && c.bytes > c.caps.Bytes) {
		victim, first := "", true
		for k, u := range c.used {
			if first || u < c.used[victim] || u == c.used[victim] && k < victim {
				victim, first = k, false
			}
		}
		c.drop(victim)
		c.evictions++
	}
}

func (c *refCache) drop(k string) {
	if size, ok := c.size[k]; ok {
		c.bytes -= size
		delete(c.size, k)
		delete(c.dataset, k)
		delete(c.used, k)
	}
}

func (c *refCache) invalidate(ds string) (n int) {
	for k, d := range c.dataset {
		if d == ds {
			c.drop(k)
			n++
		}
	}
	return n
}

// TestVictimHeapMatchesScan runs random Get, Insert and InvalidateDataset
// histories over three datasets, under entry caps, byte caps and both,
// against refCache: after every step the live entries, their sizes, the
// resident bytes, the evictions and each dataset's filed entries must
// agree, and every entry must sit where the heap says.
func TestVictimHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial, caps := range []Caps{{Entries: 8}, {Bytes: 300}, {Entries: 12, Bytes: 450}, {Entries: 1}} {
		r := counted(caps)
		ref := &refCache{caps: caps, size: map[string]int64{}, dataset: map[string]string{}, used: map[string]uint64{}}
		for step := 0; step < 3000; step++ {
			k := fmt.Sprintf("k%02d", rng.Intn(30))
			ds := fmt.Sprintf("d%d", rng.Intn(3))
			switch op := rng.Intn(10); {
			case op < 4:
				if _, ok := r.Get(k); ok {
					ref.used[k] = ref.clock
				}
			case op < 9:
				rows := rowsOf(rng.Intn(8))
				r.Insert(k, ds, rows)
				ref.insert(k, ds, sizeOf(k, rows))
			default:
				if got, want := r.InvalidateDataset(ds), ref.invalidate(ds); got != want {
					t.Fatalf("trial %d step %d: invalidating %s dropped %d, the scan %d", trial, step, ds, got, want)
				}
			}
			want := make([]string, 0, len(ref.size))
			wantFiled := map[string][]string{}
			for k := range ref.size {
				want = append(want, k)
				wantFiled[ref.dataset[k]] = append(wantFiled[ref.dataset[k]], k)
			}
			sort.Strings(want)
			for _, keys := range wantFiled {
				sort.Strings(keys)
			}
			if got := r.keys(); !reflect.DeepEqual(got, want) || r.resident() != ref.bytes || r.evictions() != ref.evictions {
				t.Fatalf("trial %d step %d: keys %v, %d B, %d evictions; the scan's %v, %d B, %d", trial, step,
					got, r.resident(), r.evictions(), want, ref.bytes, ref.evictions)
			}
			if got := r.filed(t); !reflect.DeepEqual(got, wantFiled) {
				t.Fatalf("trial %d step %d: filed %v, the scan's %v", trial, step, got, wantFiled)
			}
			for _, k := range want {
				if e := r.entries[k]; e.bytes != ref.size[k] {
					t.Fatalf("trial %d step %d: %s weighs %d, want %d", trial, step, k, e.bytes, ref.size[k])
				}
			}
			for i, e := range r.victims {
				if e.at != i || i > 0 && before(e, r.victims[(i-1)/2]) {
					t.Fatalf("trial %d step %d: heap entry %d (at %d) out of place", trial, step, i, e.at)
				}
			}
		}
	}
}
