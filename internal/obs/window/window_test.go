package window

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"bohr/internal/obs"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	// A fixed epoch keeps bucket boundaries stable across runs.
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestCounterWindowedRates(t *testing.T) {
	clk := newFakeClock()
	r := New(clk.Now)

	// 1 count per second for 10 seconds.
	for i := 0; i < 10; i++ {
		r.Count("req", 1)
		clk.Advance(time.Second)
	}
	snap := r.Snapshot()
	cw := snap.Counters["req"]
	// The advance loop ended one second past the last count, so the 10s
	// window holds 9 of the 10 counts (the first fell off).
	if got := cw["10s"].Sum; got != 9 {
		t.Fatalf("10s sum = %v, want 9", got)
	}
	if got := cw["10s"].Rate; got != 0.9 {
		t.Fatalf("10s rate = %v, want 0.9", got)
	}
	if got := cw["1m"].Sum; got != 10 {
		t.Fatalf("1m sum = %v, want 10", got)
	}
	if got := cw["5m"].Sum; got != 10 {
		t.Fatalf("5m sum = %v, want 10", got)
	}

	// After 10 more quiet seconds the 10s window is empty; 1m still full.
	clk.Advance(10 * time.Second)
	cw = r.Snapshot().Counters["req"]
	if got := cw["10s"].Sum; got != 0 {
		t.Fatalf("10s sum after quiet gap = %v, want 0", got)
	}
	if got := cw["1m"].Sum; got != 10 {
		t.Fatalf("1m sum after quiet gap = %v, want 10", got)
	}

	// After the 5m span passes, everything has decayed.
	clk.Advance(5 * time.Minute)
	cw = r.Snapshot().Counters["req"]
	for _, w := range []string{"10s", "1m", "5m"} {
		if got := cw[w].Sum; got != 0 {
			t.Fatalf("%s sum after 5m quiet = %v, want 0", w, got)
		}
	}
}

func TestCounterRingReuseAfterWrap(t *testing.T) {
	clk := newFakeClock()
	r := New(clk.Now)
	// Land counts in the same ring slot two window-spans apart: the stale
	// bucket must be reset, not accumulated.
	r.Count("req", 5)
	clk.Advance(10 * time.Second) // exactly one 10s ring revolution
	r.Count("req", 3)
	if got := r.Snapshot().Counters["req"]["10s"].Sum; got != 3 {
		t.Fatalf("10s sum after wrap = %v, want 3 (stale bucket leaked)", got)
	}
}

func TestHistogramWindowedPercentiles(t *testing.T) {
	clk := newFakeClock()
	r := New(clk.Now)

	// 100 observations 1..100 spread over 5 seconds.
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i))
		if i%20 == 0 {
			clk.Advance(time.Second)
		}
	}
	hw := r.Snapshot().Histograms["lat"]["10s"]
	if hw.Count != 100 {
		t.Fatalf("10s count = %d, want 100", hw.Count)
	}
	if hw.P50 != 50 || hw.P90 != 90 || hw.P99 != 99 {
		t.Fatalf("10s percentiles = %v/%v/%v, want 50/90/99", hw.P50, hw.P90, hw.P99)
	}
	if hw.Max != 100 {
		t.Fatalf("10s max = %v, want 100", hw.Max)
	}
	if hw.Rate != 10 {
		t.Fatalf("10s rate = %v, want 10", hw.Rate)
	}

	// A late burst of slow observations must dominate the 10s p99 while
	// the 5m window still remembers the old distribution's count.
	clk.Advance(20 * time.Second)
	for i := 0; i < 10; i++ {
		r.Observe("lat", 1000)
	}
	snap := r.Snapshot()
	if got := snap.Histograms["lat"]["10s"].P99; got != 1000 {
		t.Fatalf("10s p99 after burst = %v, want 1000", got)
	}
	if got := snap.Histograms["lat"]["5m"].Count; got != 110 {
		t.Fatalf("5m count = %d, want 110", got)
	}
}

func TestHistogramBucketCapExactCount(t *testing.T) {
	clk := newFakeClock()
	r := New(clk.Now)
	for i := 0; i < 3*BucketCap; i++ {
		r.Observe("hot", 1)
	}
	hw := r.Snapshot().Histograms["hot"]["10s"]
	if hw.Count != 3*BucketCap {
		t.Fatalf("count = %d, want %d (must stay exact past the reservoir cap)", hw.Count, 3*BucketCap)
	}
	if hw.P50 != 1 || hw.P99 != 1 {
		t.Fatalf("degenerate percentiles = %v/%v, want 1/1", hw.P50, hw.P99)
	}
}

// TestHistogramBucketPastCapMatchesEagerSource holds a bucket observed
// past BucketCap, whose series seeds its source at the first draw, to the
// same bucket under an eagerly seeded source of the same seed: the same
// reservoir, so the same percentiles.
func TestHistogramBucketPastCapMatchesEagerSource(t *testing.T) {
	const name, n = "serve.latency_s", 3*BucketCap + 17
	clk := newFakeClock()
	lazy, eager := New(clk.Now), New(clk.Now)
	h := fnv.New64a()
	h.Write([]byte(name))
	eager.hist(name).rng = rand.New(rand.NewSource(int64(h.Sum64())))
	for i := range n {
		v := float64(i%997) / 7
		lazy.Observe(name, v)
		eager.Observe(name, v)
	}
	got, want := lazy.Snapshot().Histograms[name], eager.Snapshot().Histograms[name]
	for _, w := range []string{"10s", "1m", "5m"} {
		if got[w].Count != n {
			t.Fatalf("%s count = %d, want %d", w, got[w].Count, n)
		}
		if got[w] != want[w] {
			t.Fatalf("%s: lazily seeded bucket reports %+v, eagerly seeded %+v", w, got[w], want[w])
		}
	}
}

func TestSnapshotDeterministicUnderTestClock(t *testing.T) {
	run := func() *Snapshot {
		clk := newFakeClock()
		r := New(clk.Now)
		for i := 0; i < 2000; i++ {
			r.Count("c", float64(i%7))
			r.Observe("h", float64(i%97))
			if i%50 == 0 {
				clk.Advance(time.Second)
			}
		}
		return r.Snapshot()
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("snapshots differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestGaugeKeepsLastValue(t *testing.T) {
	r := New(nil)
	r.Gauge("depth", 4)
	r.Gauge("depth", 7)
	if got := r.Snapshot().Gauges["depth"]; got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Count("x", 1)
	r.Gauge("x", 1)
	r.Observe("x", 1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
}

// TestCollectorSinkMirrorsIntoWindows exercises the obs tap end to end:
// metric traffic entering a Collector must land in the windowed registry.
func TestCollectorSinkMirrorsIntoWindows(t *testing.T) {
	clk := newFakeClock()
	r := New(clk.Now)
	col := obs.NewCollector()
	col.SetSink(r)

	col.Count("serve.requests", 3)
	col.Gauge("serve.inflight", 2)
	col.Observe("serve.latency_s", 0.25)

	snap := r.Snapshot()
	if got := snap.Counters["serve.requests"]["1m"].Sum; got != 3 {
		t.Fatalf("mirrored counter = %v, want 3", got)
	}
	if got := snap.Gauges["serve.inflight"]; got != 2 {
		t.Fatalf("mirrored gauge = %v, want 2", got)
	}
	if got := snap.Histograms["serve.latency_s"]["1m"].Count; got != 1 {
		t.Fatalf("mirrored histogram count = %v, want 1", got)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines while
// snapshotting; run under -race (make race covers ./internal/obs/...).
func TestConcurrentRegistry(t *testing.T) {
	r := New(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g%3)
			for i := 0; i < 2000; i++ {
				r.Count(name, 1)
				r.Observe(name+".lat", float64(i))
				r.Gauge(name+".g", float64(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total float64
	for _, per := range r.Snapshot().Counters {
		total += per["5m"].Sum
	}
	if total != 8*2000 {
		t.Fatalf("total counted = %v, want %v", total, 8*2000)
	}
}

// TestCollectorAndBucketRankAlike feeds one stream into a Collector and
// into a one-bucket Registry, below both caps, past BucketCap and past
// HistogramCap. Count and Max are exact on both sides at every length.
// The percentiles are the ⌈q·n⌉-th smallest of the reservoir an eagerly
// seeded source keeps at each side's cap, ranked here independently of
// the package; below both caps the reservoirs hold the whole stream, so
// the two sides report the same p50/p90/p99.
func TestCollectorAndBucketRankAlike(t *testing.T) {
	const name = "serve.latency_s"
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64())
	reservoir := func(vals []float64, limit int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		var kept []float64
		for i, v := range vals {
			if len(kept) < limit {
				kept = append(kept, v)
			} else if j := rng.Intn(i + 1); j < limit {
				kept[j] = v
			}
		}
		return kept
	}
	ranks := func(kept []float64) [3]float64 {
		sorted := append([]float64(nil), kept...)
		sort.Float64s(sorted)
		var out [3]float64
		for i, q := range []float64{0.50, 0.90, 0.99} {
			out[i] = sorted[int(math.Ceil(q*float64(len(sorted))))-1]
		}
		return out
	}
	for _, n := range []int{BucketCap / 2, BucketCap + 17, obs.HistogramCap + 17} {
		clk := newFakeClock()
		col, reg := obs.NewCollector(), New(clk.Now, Def{Name: "all", Bucket: time.Hour, Count: 1})
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i*7919)%1009) / 3
			col.Observe(name, vals[i])
			reg.Observe(name, vals[i])
		}
		cs := col.MetricsSnapshot().Histograms[name]
		ws := reg.Snapshot().Histograms[name]["all"]
		if cs.Count != n || ws.Count != n || cs.Max != ws.Max {
			t.Fatalf("n=%d: collector count %d max %v, bucket count %d max %v", n, cs.Count, cs.Max, ws.Count, ws.Max)
		}
		gotC, gotW := [3]float64{cs.P50, cs.P90, cs.P99}, [3]float64{ws.P50, ws.P90, ws.P99}
		if want := ranks(reservoir(vals, obs.HistogramCap)); gotC != want {
			t.Fatalf("n=%d: collector p50/p90/p99 = %v, want %v", n, gotC, want)
		}
		if want := ranks(reservoir(vals, BucketCap)); gotW != want {
			t.Fatalf("n=%d: bucket p50/p90/p99 = %v, want %v", n, gotW, want)
		}
		if n <= BucketCap && gotC != gotW {
			t.Fatalf("n=%d, below both caps: collector %v, bucket %v", n, gotC, gotW)
		}
	}
}
