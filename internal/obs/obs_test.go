package obs

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	c := NewCollector()
	prep := c.StartSpan("prepare")
	probes := c.StartSpan("probes")
	probes.Add(1.5)
	probes.End()
	lp := c.StartSpan("lp")
	lp.Child("calibrate").Add(0.25)
	lp.Add(2)
	lp.End()
	prep.Add(3.5)
	prep.End()
	run := c.StartSpan("run")
	run.Add(7)
	run.End()

	tr := c.Trace()
	if tr.Name != "bohr" {
		t.Fatalf("root = %q", tr.Name)
	}
	if got := tr.Find("prepare", "probes"); got == nil || got.Modeled != 1.5 {
		t.Fatalf("probes span = %+v", got)
	}
	if got := tr.Find("prepare", "lp", "calibrate"); got == nil || got.Modeled != 0.25 {
		t.Fatalf("calibrate span = %+v", got)
	}
	if got := tr.Find("run"); got == nil || got.Modeled != 7 {
		t.Fatalf("run span = %+v", got)
	}
	if got := tr.Find("prepare", "missing"); got != nil {
		t.Fatalf("Find on missing path = %+v", got)
	}
	// Sibling order is creation order.
	if len(tr.Children) != 2 || tr.Children[0].Name != "prepare" || tr.Children[1].Name != "run" {
		t.Fatalf("root children = %+v", tr.Children)
	}
}

func TestSpanEndPopsLeakedChildren(t *testing.T) {
	c := NewCollector()
	outer := c.StartSpan("outer")
	c.StartSpan("leaked") // never ended
	outer.End()
	if cur := c.Current(); cur.Name != "bohr" {
		t.Fatalf("ending an ancestor should pop leaked children, current = %q", cur.Name)
	}
	// Ending an already-popped span is harmless.
	outer.End()
	if cur := c.Current(); cur.Name != "bohr" {
		t.Fatalf("double End moved current to %q", cur.Name)
	}
}

func TestChildFindOrCreate(t *testing.T) {
	c := NewCollector()
	q := c.Current().Child("q00:scan")
	q.Child("map").Add(1)
	q.Child("map").Add(2)
	q.Child("shuffle").Add(5)
	if got := c.Trace().Find("q00:scan", "map"); got.Modeled != 3 {
		t.Fatalf("map accumulated %v, want 3", got.Modeled)
	}
	if n := len(c.Trace().Find("q00:scan").Children); n != 2 {
		t.Fatalf("children = %d, want 2 (map, shuffle)", n)
	}
	// Child must not change the collector's current span.
	if cur := c.Current(); cur.Name != "bohr" {
		t.Fatalf("Child made %q current", cur.Name)
	}
}

func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	sp := c.StartSpan("x")
	if sp != nil {
		t.Fatal("nil collector should hand out nil spans")
	}
	sp.Add(1)
	sp.End()
	if ch := sp.Child("y"); ch != nil {
		t.Fatal("nil span Child should be nil")
	}
	c.Count("a", 1)
	c.Gauge("b", 2)
	c.Observe("c", 3)
	if c.Current() != nil || c.Trace() != nil || c.MetricsSnapshot() != nil {
		t.Fatal("nil collector accessors should return nil")
	}
}

func TestMetrics(t *testing.T) {
	c := NewCollector()
	c.Count("records", 10)
	c.Count("records", 5)
	c.Gauge("sites", 4)
	c.Gauge("sites", 10)
	snap := c.MetricsSnapshot()
	if snap.Counters["records"] != 15 {
		t.Fatalf("counter = %v", snap.Counters["records"])
	}
	if snap.Gauges["sites"] != 10 {
		t.Fatalf("gauge should keep last value, got %v", snap.Gauges["sites"])
	}
	// Snapshot is a copy: later writes must not leak into it.
	c.Count("records", 100)
	if snap.Counters["records"] != 15 {
		t.Fatal("snapshot mutated by later Count")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.Observe("lat", float64(i))
	}
	st := c.MetricsSnapshot().Histograms["lat"]
	if st.Count != 100 || st.Min != 1 || st.Max != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Sum != 5050 {
		t.Fatalf("sum = %v", st.Sum)
	}
	// Nearest-rank on 1..100: P50 = 50th value, P90 = 90th, P99 = 99th.
	if st.P50 != 50 || st.P90 != 90 || st.P99 != 99 {
		t.Fatalf("percentiles = %v/%v/%v", st.P50, st.P90, st.P99)
	}

	// Single observation: every percentile is that value.
	c.Observe("one", 7)
	one := c.MetricsSnapshot().Histograms["one"]
	if one.P50 != 7 || one.P90 != 7 || one.P99 != 7 {
		t.Fatalf("single-obs percentiles = %+v", one)
	}
}

func TestPercentileBoundaries(t *testing.T) {
	// n=1: every percentile is the single value (ceil(q*1)-1 = 0).
	c := NewCollector()
	c.Observe("one", 42)
	st := c.MetricsSnapshot().Histograms["one"]
	if st.P50 != 42 || st.P90 != 42 || st.P99 != 42 {
		t.Fatalf("n=1 percentiles = %+v", st)
	}

	// Exact multiples: on n=100 of 1..100, q=0.99 must hit the 99th
	// smallest value exactly, not round up to the 100th.
	c2 := NewCollector()
	for i := 1; i <= 100; i++ {
		c2.Observe("lat", float64(i))
	}
	lat := c2.MetricsSnapshot().Histograms["lat"]
	if lat.P50 != 50 || lat.P90 != 90 || lat.P99 != 99 {
		t.Fatalf("exact-multiple percentiles = %v/%v/%v, want 50/90/99", lat.P50, lat.P90, lat.P99)
	}

	// n=2: ceil(0.5*2)=1 → P50 is the smaller value; P99 the larger.
	c3 := NewCollector()
	c3.Observe("two", 10)
	c3.Observe("two", 20)
	two := c3.MetricsSnapshot().Histograms["two"]
	if two.P50 != 10 || two.P99 != 20 {
		t.Fatalf("n=2 percentiles = %+v", two)
	}
}

// TestHistogramReservoirMatchesEagerSource holds a series observed past
// the cap, whose source is seeded on its first draw, to the reservoir an
// eagerly seeded source of the same seed keeps, value for value.
func TestHistogramReservoirMatchesEagerSource(t *testing.T) {
	const name, n = "combine.reduction.ratio", 3*HistogramCap + 17
	c := NewCollector()
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	want := make([]float64, 0, HistogramCap)
	for i := range n {
		v := float64(i%997) / 7
		c.Observe(name, v)
		if len(want) < HistogramCap {
			want = append(want, v)
		} else if j := rng.Intn(i + 1); j < HistogramCap {
			want[j] = v
		}
	}
	c.mu.Lock()
	got := slices.Clone(c.hists[name].vals)
	c.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("the reservoir of a series observed %d times differs from an eagerly seeded one", n)
	}
}

func TestHistogramReservoirCap(t *testing.T) {
	c := NewCollector()
	n := HistogramCap * 3
	for i := 0; i < n; i++ {
		c.Observe("big", float64(i))
	}
	c.mu.Lock()
	held := len(c.hists["big"].vals)
	c.mu.Unlock()
	if held != HistogramCap {
		t.Fatalf("reservoir holds %d observations, want cap %d", held, HistogramCap)
	}
	st := c.MetricsSnapshot().Histograms["big"]
	if st.Count != n {
		t.Fatalf("Count = %d, want exact %d", st.Count, n)
	}
	if st.Min != 0 || st.Max != float64(n-1) {
		t.Fatalf("min/max = %v/%v, want exact 0/%d", st.Min, st.Max, n-1)
	}
	if want := float64(n) * float64(n-1) / 2; st.Sum != want {
		t.Fatalf("Sum = %v, want exact %v", st.Sum, want)
	}
	// The sampled median of a uniform 0..n-1 stream should land near the
	// true median; a generous band guards against a broken reservoir.
	if st.P50 < float64(n)/4 || st.P50 > 3*float64(n)/4 {
		t.Fatalf("sampled P50 = %v wildly off for uniform 0..%d", st.P50, n-1)
	}

	// Determinism: the same observation sequence yields the same stats.
	c2 := NewCollector()
	for i := 0; i < n; i++ {
		c2.Observe("big", float64(i))
	}
	if got := c2.MetricsSnapshot().Histograms["big"]; got != st {
		t.Fatalf("seeded reservoir not reproducible: %+v vs %+v", got, st)
	}
}

func TestEndStampsWallOnPoppedDescendants(t *testing.T) {
	c := NewCollector(WithWallClock())
	outer := c.StartSpan("outer")
	mid := c.StartSpan("mid")
	inner := c.StartSpan("inner")
	_ = mid
	_ = inner
	time.Sleep(5 * time.Millisecond)
	outer.End() // pops inner and mid implicitly
	tr := c.Trace()
	for _, path := range [][]string{{"outer"}, {"outer", "mid"}, {"outer", "mid", "inner"}} {
		sp := tr.Find(path...)
		if sp == nil {
			t.Fatalf("span %v missing", path)
		}
		if sp.Wall <= 0 {
			t.Fatalf("span %v popped by ancestor End has Wall = %v, want > 0", path, sp.Wall)
		}
	}
}

// TestMergeSnapshot pins how one collector's metrics reach another: a
// child whose sink is the parent forwards every update as it happens, so
// counters add up on the parent, gauges take the child's value and
// histograms arrive as histograms, with no ".sum"/".count" counters. A
// nil parent or child is safe.
func TestMergeSnapshot(t *testing.T) {
	parent := NewCollector()
	parent.Count("shared", 1)
	parent.Observe("lat", 1)
	child := NewCollector()
	child.SetSink(parent)
	child.Count("shared", 2)
	child.Count("child.only", 5)
	child.Gauge("conns", 3)
	for _, v := range []float64{2, 3, 4} {
		child.Observe("lat", v)
	}
	snap := parent.MetricsSnapshot()
	if snap.Counters["shared"] != 3 || snap.Counters["child.only"] != 5 {
		t.Fatalf("forwarded counters = %+v", snap.Counters)
	}
	if snap.Gauges["conns"] != 3 {
		t.Fatalf("forwarded gauges = %+v", snap.Gauges)
	}
	if h := snap.Histograms["lat"]; h.Count != 4 || h.Sum != 10 || h.Max != 4 {
		t.Fatalf("forwarded histogram = %+v, want count 4 sum 10 max 4", h)
	}
	if _, ok := snap.Counters["lat.sum"]; ok {
		t.Fatalf("histogram folded into counters: %+v", snap.Counters)
	}
	if _, ok := snap.Counters["lat.count"]; ok {
		t.Fatalf("histogram folded into counters: %+v", snap.Counters)
	}
	var nilC *Collector
	child.SetSink(nilC)
	child.Count("shared", 1)
	child.Observe("lat", 1)
	nilC.SetSink(parent)
	nilC.Count("shared", 1)
	if got := parent.MetricsSnapshot().Counters["shared"]; got != 3 {
		t.Fatalf("parent counter after nil links = %v, want 3", got)
	}
}

func TestEventLogConcurrentWriters(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.RecordEvent(Event{T: float64(i), Kind: "retry", Site: g})
				if i%10 == 0 {
					_ = c.EventLog() // concurrent reads must be safe too
				}
			}
		}(g)
	}
	wg.Wait()
	log := c.EventLog()
	if len(log) != writers*per {
		t.Fatalf("event log holds %d events, want %d", len(log), writers*per)
	}
	// The copy is detached from later writes.
	c.RecordEvent(Event{Kind: "late"})
	if len(log) != writers*per {
		t.Fatal("EventLog copy mutated by a later RecordEvent")
	}
}

func TestFindMissingPaths(t *testing.T) {
	c := NewCollector()
	c.StartSpan("a").End()
	tr := c.Trace()
	if got := tr.Find("a", "b"); got != nil {
		t.Fatalf("missing leaf = %+v", got)
	}
	if got := tr.Find("nope"); got != nil {
		t.Fatalf("missing root child = %+v", got)
	}
	if got := tr.Find("a", "b", "c", "d"); got != nil {
		t.Fatalf("deep missing path = %+v", got)
	}
	if got := tr.Find(); got != tr {
		t.Fatal("empty path should return the receiver")
	}
	var nilSpan *Span
	if got := nilSpan.Find("x"); got != nil {
		t.Fatal("Find on nil span should be nil")
	}
}

func TestConcurrentUse(t *testing.T) {
	c := NewCollector()
	root := c.Current()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sp := root.Child("worker")
			for i := 0; i < 100; i++ {
				sp.Add(1)
				c.Count("ops", 1)
				c.Observe("lat", float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Trace().Find("worker").Modeled; got != 800 {
		t.Fatalf("modeled = %v, want 800", got)
	}
	if got := c.MetricsSnapshot().Counters["ops"]; got != 800 {
		t.Fatalf("ops = %v, want 800", got)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	mk := func() ([]byte, error) {
		c := NewCollector()
		c.StartSpan("prepare").End()
		c.Count("z.last", 1)
		c.Count("a.first", 2)
		c.Observe("h", 1)
		c.Observe("h", 3)
		doc := struct {
			Trace   *Span     `json:"trace"`
			Metrics *Snapshot `json:"metrics"`
		}{c.Trace(), c.MetricsSnapshot()}
		return json.Marshal(doc)
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("identical collectors marshal differently:\n%s\n%s", a, b)
	}
}

func TestSanitizeLabel(t *testing.T) {
	// Clean short labels pass through untouched — existing metric names
	// must not change shape.
	for _, ok := range []string{"alice", "t42", "web-tier_1"} {
		if got := SanitizeLabel(ok); got != ok {
			t.Fatalf("SanitizeLabel(%q) = %q, want unchanged", ok, got)
		}
	}
	// Hostile characters are replaced and the result is hash-suffixed.
	hostile := "evil\ntenant{job=\"x\"} 42"
	got := SanitizeLabel(hostile)
	for _, r := range got {
		valid := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9' || r == '_' || r == '-'
		if !valid {
			t.Fatalf("SanitizeLabel(%q) = %q contains invalid rune %q", hostile, got, r)
		}
	}
	// Distinct inputs that sanitize to the same charset skeleton must not
	// collide (hash suffix disambiguates).
	if SanitizeLabel("a{b") == SanitizeLabel("a}b") {
		t.Fatal("distinct hostile labels collided after sanitizing")
	}
	// Deterministic.
	if SanitizeLabel(hostile) != got {
		t.Fatal("sanitization is not deterministic")
	}
	// Long labels are truncated but stay bounded and distinct.
	long1 := strings.Repeat("x", 200) + "1"
	long2 := strings.Repeat("x", 200) + "2"
	if len(SanitizeLabel(long1)) > 64 {
		t.Fatalf("long label not bounded: %d runes", len(SanitizeLabel(long1)))
	}
	if SanitizeLabel(long1) == SanitizeLabel(long2) {
		t.Fatal("distinct long labels collided after truncation")
	}
	// Empty input yields a usable placeholder.
	if got := SanitizeLabel(""); got == "" {
		t.Fatal("empty label sanitized to empty string")
	}
}

// TestSinkReceivesAllPaths checks the Collector forwards counters,
// gauges and observations to an attached Sink.
func TestSinkReceivesAllPaths(t *testing.T) {
	col := NewCollector()
	sink := &recordingSink{events: map[string]float64{}}
	col.SetSink(sink)
	col.Count("c", 2)
	col.Gauge("g", 7)
	col.Observe("h", 0.5)
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for name, want := range map[string]float64{
		"count:c": 2, "gauge:g": 7, "observe:h": 0.5,
	} {
		if got := sink.events[name]; got != want {
			t.Fatalf("sink %s = %v, want %v (events: %v)", name, got, want, sink.events)
		}
	}
	// Detaching stops the flow; a nil collector stays safe.
	col.SetSink(nil)
	col.Count("c", 1)
	var nilCol *Collector
	nilCol.SetSink(sink)
}

type recordingSink struct {
	mu     sync.Mutex
	events map[string]float64
}

func (r *recordingSink) Count(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events["count:"+name] += v
}

func (r *recordingSink) Gauge(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events["gauge:"+name] = v
}

func (r *recordingSink) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events["observe:"+name] = v
}
