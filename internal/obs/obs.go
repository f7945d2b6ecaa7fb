// Package obs is the observability layer of the Bohr reproduction: a
// deterministic span tracer recording the hierarchy of named phases the
// paper's QCT decomposition talks about (prepare → probes → lp →
// calibrate → move, run → per-query map/shuffle/reduce), and a metrics
// registry of counters, gauges and histograms (records moved, probe
// bytes, simplex pivots, per-link WAN MB, combiner ratios).
//
// Spans carry *modeled* time — the simulator's QCT accounting — so that
// traces are bit-deterministic for a fixed seed; wall-clock durations are
// recorded only when the collector is built with WithWallClock, because
// they break byte-identical report output.
//
// Histogram series are bounded: each series retains at most HistogramCap
// observations via deterministic (seeded-per-series) reservoir sampling,
// so long live runs cannot grow the registry without bound. Count, Sum,
// Min and Max stay exact; percentiles are computed over the reservoir.
//
// A nil *Collector (and the nil *Span it hands out) is a valid no-op:
// every method checks its receiver, so instrumented code paths cost one
// pointer comparison when observability is off. All operations are
// mutex-guarded and safe for concurrent use.
package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"bohr/internal/stats"
)

// Span is one named phase in the trace tree.
type Span struct {
	// Name identifies the phase ("prepare", "probes", "shuffle", …).
	Name string `json:"name"`
	// Modeled is the phase's modeled time in seconds — the simulator's
	// deterministic QCT accounting, not wall-clock.
	Modeled float64 `json:"modeled_s"`
	// Wall is the measured wall-clock duration in seconds; zero unless the
	// collector was built with WithWallClock.
	Wall float64 `json:"wall_s,omitempty"`
	// Children are sub-phases in creation order.
	Children []*Span `json:"children,omitempty"`

	c       *Collector
	parent  *Span
	started time.Time
}

// Event is one discrete occurrence on the run's modeled timeline — a
// fault firing, a retry, a site coming back — recorded in arrival order.
// T is modeled seconds, so event logs stay byte-deterministic.
type Event struct {
	T      float64 `json:"t_s"`
	Kind   string  `json:"kind"`
	Site   int     `json:"site"`
	Detail string  `json:"detail,omitempty"`
}

// Sink mirrors the stream of metric updates entering a Collector. A
// registered sink sees every Count, Gauge and Observe after the
// collector's own registry has absorbed it. Sinks must not call back into
// the collector. A Collector is itself a Sink: a served request's own
// collector forwards to the daemon's this way, and the daemon's forwards
// on to the windowed-aggregation registry (internal/obs/window).
type Sink interface {
	Count(name string, delta float64)
	Gauge(name string, v float64)
	Observe(name string, v float64)
}

// Collector gathers one run's trace and metrics.
type Collector struct {
	mu       sync.Mutex
	root     *Span
	cur      *Span
	wall     bool
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*histogram
	events   []Event
	sink     Sink
}

// SetSink attaches (or, with nil, detaches) a metrics sink. Nil-safe.
func (c *Collector) SetSink(s Sink) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = s
}

// Option configures a Collector.
type Option func(*Collector)

// WithWallClock records wall-clock durations on spans in addition to
// modeled time. Wall times are nondeterministic, so reports produced with
// this option are not byte-identical across runs.
func WithWallClock() Option { return func(c *Collector) { c.wall = true } }

// NewCollector creates an empty collector. The trace root span is named
// "bohr".
func NewCollector(opts ...Option) *Collector {
	c := &Collector{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
	}
	c.root = &Span{Name: "bohr", c: c}
	c.cur = c.root
	for _, o := range opts {
		o(c)
	}
	return c
}

// StartSpan opens a new child of the current span and makes it current.
// Close it with End. Nil-safe: a nil collector returns a nil span.
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := &Span{Name: name, c: c, parent: c.cur}
	if c.wall {
		sp.started = time.Now()
	}
	c.cur.Children = append(c.cur.Children, sp)
	c.cur = sp
	return sp
}

// Current returns the innermost open span (the trace root when nothing is
// open). Nil-safe.
func (c *Collector) Current() *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// End closes the span: the collector's current span returns to the
// parent. Ending a span that has already been popped (or that is an
// ancestor of the current span) pops everything above it too, so span
// leaks from early returns stay contained; every span popped this way
// gets its wall-clock duration stamped, not just the receiver.
func (s *Span) End() {
	if s == nil || s.c == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	onChain := false
	for cur := c.cur; cur != nil; cur = cur.parent {
		if cur == s {
			onChain = true
			break
		}
	}
	if !onChain {
		c.stampWall(s)
		return
	}
	for cur := c.cur; ; cur = cur.parent {
		c.stampWall(cur)
		if cur == s {
			break
		}
	}
	c.cur = s.parent
	if c.cur == nil {
		c.cur = c.root
	}
}

// stampWall records the span's wall duration if the collector measures
// wall time and the span has not been stamped yet. Callers hold c.mu.
func (c *Collector) stampWall(s *Span) {
	if c.wall && !s.started.IsZero() && s.Wall == 0 {
		s.Wall = time.Since(s.started).Seconds()
	}
}

// WallClock reports whether the collector stamps wall-clock durations on
// spans (built with WithWallClock). Nil-safe.
func (c *Collector) WallClock() bool {
	if c == nil {
		return false
	}
	return c.wall
}

// Add accumulates modeled seconds onto the span. Nil-safe.
func (s *Span) Add(dt float64) {
	if s == nil {
		return
	}
	if s.c != nil {
		s.c.mu.Lock()
		defer s.c.mu.Unlock()
	}
	s.Modeled += dt
}

// Child finds or creates a direct child by name WITHOUT making it
// current — the accumulation form used where strict stack discipline does
// not hold (e.g. per-query stage times interleaved across concurrent
// jobs). Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if s.c != nil {
		s.c.mu.Lock()
		defer s.c.mu.Unlock()
	}
	for _, ch := range s.Children {
		if ch.Name == name {
			return ch
		}
	}
	ch := &Span{Name: name, c: s.c, parent: s}
	s.Children = append(s.Children, ch)
	return ch
}

// Count adds delta to a named counter. Nil-safe.
func (c *Collector) Count(name string, delta float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		sink.Count(name, delta)
	}
}

// Gauge sets a named gauge to the given value. Nil-safe.
func (c *Collector) Gauge(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = v
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		sink.Gauge(name, v)
	}
}

// HistogramCap bounds the observations retained per histogram series.
// Beyond the cap, reservoir sampling (seeded per series name, so runs
// are reproducible for a fixed observation order) keeps a uniform sample
// for the percentile estimates while Count/Sum/Min/Max stay exact.
const HistogramCap = 4096

// Sample is one bounded histogram: a reservoir of observations plus the
// exact count, sum, min and max. The zero value is empty. The collector
// keeps one per series and window.Registry one per bucket.
type Sample struct {
	vals []float64
	seen int
	sum  float64
	min  float64
	max  float64
}

// Observe records v. The reservoir keeps the first limit observations;
// past it the n-th replaces a slot drawn from rng with probability
// limit/n, so it stays a uniform sample.
func (s *Sample) Observe(v float64, limit int, rng *rand.Rand) {
	if s.seen == 0 || v < s.min {
		s.min = v
	}
	if s.seen == 0 || v > s.max {
		s.max = v
	}
	s.seen++
	s.sum += v
	if len(s.vals) < limit {
		s.vals = append(s.vals, v)
	} else if j := rng.Intn(s.seen); j < limit {
		s.vals[j] = v
	}
}

// Reset empties the sample and keeps the reservoir's storage.
func (s *Sample) Reset() { *s = Sample{vals: s.vals[:0]} }

// Merge folds o into s for a summary over several samples: the exact
// aggregates combine and the reservoirs concatenate, unbounded.
func (s *Sample) Merge(o *Sample) {
	if o.seen == 0 {
		return
	}
	if s.seen == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.seen == 0 || o.max > s.max {
		s.max = o.max
	}
	s.seen += o.seen
	s.sum += o.sum
	s.vals = append(s.vals, o.vals...)
}

// Stats summarizes the sample: Count, Sum, Min and Max exact, the
// percentiles over the reservoir.
func (s *Sample) Stats() HistogramStats {
	st := HistogramStats{Count: s.seen, Sum: s.sum, Min: s.min, Max: s.max}
	st.P50, st.P90, st.P99 = percentiles(slices.Clone(s.vals))
	return st
}

// percentiles sorts vals in place and returns its p50, p90 and p99 by
// nearest rank: the ⌈q·n⌉-th smallest value. No values give zeros.
func percentiles(vals []float64) (p50, p90, p99 float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(vals)
	rank := func(q float64) float64 {
		return vals[max(int(math.Ceil(q*float64(len(vals))))-1, 0)]
	}
	return rank(0.50), rank(0.90), rank(0.99)
}

// SeriesRand is the generator a series named name samples its reservoir
// with: seeded from the name, and only at its first draw, since most
// series never pass their cap and a seeded source is about 5 kB.
func SeriesRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return stats.NewLazyRand(int64(h.Sum64()))
}

// histogram is one collector series: a Sample capped at HistogramCap and
// the generator its reservoir draws from.
type histogram struct {
	Sample
	rng *rand.Rand
}

// Observe records one observation into a named histogram. Nil-safe.
func (c *Collector) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &histogram{rng: SeriesRand(name)}
		c.hists[name] = h
	}
	h.Observe(v, HistogramCap, h.rng)
	sink := c.sink
	c.mu.Unlock()
	if sink != nil {
		sink.Observe(name, v)
	}
}

// RecordEvent appends one timeline event. Nil-safe.
func (c *Collector) RecordEvent(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

// EventLog copies the recorded timeline events in arrival order.
// Nil-safe: a nil collector (or no events) returns nil.
func (c *Collector) EventLog() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return nil
	}
	return append([]Event(nil), c.events...)
}

// HistogramStats summarizes a histogram's observations (Sample.Stats).
type HistogramStats struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of the metrics registry with a stable
// JSON encoding (map keys marshal sorted).
type Snapshot struct {
	Counters   map[string]float64        `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// MetricsSnapshot copies the current metric values. Nil-safe: a nil
// collector returns nil.
func (c *Collector) MetricsSnapshot() *Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &Snapshot{}
	if len(c.counters) > 0 {
		snap.Counters = make(map[string]float64, len(c.counters))
		for k, v := range c.counters {
			snap.Counters[k] = v
		}
	}
	if len(c.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(c.gauges))
		for k, v := range c.gauges {
			snap.Gauges[k] = v
		}
	}
	if len(c.hists) > 0 {
		snap.Histograms = make(map[string]HistogramStats, len(c.hists))
		for k, h := range c.hists {
			snap.Histograms[k] = h.Stats()
		}
	}
	return snap
}

// Trace returns a deep copy of the trace tree, detached from the
// collector so later spans do not mutate it. Nil-safe: returns nil on a
// nil collector.
func (c *Collector) Trace() *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return copySpan(c.root)
}

func copySpan(s *Span) *Span {
	out := &Span{Name: s.Name, Modeled: s.Modeled, Wall: s.Wall}
	for _, ch := range s.Children {
		out.Children = append(out.Children, copySpan(ch))
	}
	return out
}

// sanitizeMax bounds a sanitized label's length; longer inputs are
// truncated and suffixed with a hash of the original.
const sanitizeMax = 48

// SanitizeLabel maps an externally supplied string (a tenant ID) onto
// the safe metric-label charset [a-zA-Z0-9_-]:
// every other rune becomes '_', and inputs that were altered or exceed
// sanitizeMax runes are truncated and suffixed with an 8-hex FNV-1a hash
// of the original, so distinct hostile inputs cannot collide onto one
// series or smuggle structure (dots, newlines, exposition syntax) into
// registry names. Well-behaved names pass through unchanged.
func SanitizeLabel(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	changed := false
	n := 0
	for _, r := range s {
		if n >= sanitizeMax {
			changed = true
			break
		}
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
			changed = true
		}
		n++
	}
	if !changed {
		return s
	}
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%s-%08x", b.String(), h.Sum32())
}

// Find returns the descendant span reached by following the named path
// from this span (nil if any step is missing). Convenience for tests and
// report consumers.
func (s *Span) Find(path ...string) *Span {
	cur := s
	for _, name := range path {
		if cur == nil {
			return nil
		}
		var next *Span
		for _, ch := range cur.Children {
			if ch.Name == name {
				next = ch
				break
			}
		}
		cur = next
	}
	return cur
}
