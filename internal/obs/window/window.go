// Package window adds the time axis the base obs registry deliberately
// lacks: rolling-window aggregation for a continuously running daemon.
// The base Collector accumulates since process start — exactly right for
// one deterministic simulated run, useless for judging a live bohrd after
// an hour of traffic, where an "all-time p99" hides the last minute's
// regression. A Registry mirrors the metric stream (via obs.Collector's
// sink tap) into fixed-size bucket rings and answers windowed questions:
// counter rates and histogram p50/p90/p99 over the last 10s, 1m, and 5m.
//
// Buckets rotate on a coarse grid driven by an injectable clock, so a
// test clock makes every rate and percentile deterministic; under the
// real clock all operations are mutex-guarded and race-clean. Per-bucket
// observation reservoirs are bounded (BucketCap) with a seeded
// reservoir-sampling policy, so a hot series costs O(windows · buckets ·
// BucketCap) memory no matter how long the daemon runs.
package window

import (
	"math/rand"
	"sync"
	"time"

	"bohr/internal/obs"
)

// Def describes one rolling window as a ring of Count buckets each
// spanning Bucket: the window covers Bucket·Count of history.
type Def struct {
	// Name labels the window in snapshots ("10s", "1m", "5m").
	Name string
	// Bucket is one ring slot's time span.
	Bucket time.Duration
	// Count is the number of ring slots.
	Count int
}

// Span is the window's total coverage.
func (d Def) Span() time.Duration { return d.Bucket * time.Duration(d.Count) }

// DefaultDefs are the daemon resolutions: 10s (1s buckets), 1m (5s
// buckets), 5m (15s buckets).
func DefaultDefs() []Def {
	return []Def{
		{Name: "10s", Bucket: time.Second, Count: 10},
		{Name: "1m", Bucket: 5 * time.Second, Count: 12},
		{Name: "5m", Bucket: 15 * time.Second, Count: 20},
	}
}

// BucketCap bounds the observations retained per histogram bucket. Each
// bucket is an obs.Sample: beyond the cap seeded reservoir sampling keeps
// a uniform sample, and its count and max stay exact.
const BucketCap = 256

// Registry holds the windowed series. It implements obs.Sink, so
// attaching it via Collector.SetSink mirrors every counter increment,
// gauge set, and histogram observation into the rings.
type Registry struct {
	mu       sync.Mutex
	defs     []Def
	now      func() time.Time
	counters map[string]*ring[float64]
	hists    map[string]*histSeries
	gauges   map[string]float64
}

// New builds a registry. A nil clock uses time.Now; no defs adopts
// DefaultDefs.
func New(now func() time.Time, defs ...Def) *Registry {
	if now == nil {
		now = time.Now
	}
	if len(defs) == 0 {
		defs = DefaultDefs()
	}
	return &Registry{
		defs:     defs,
		now:      now,
		counters: map[string]*ring[float64]{},
		hists:    map[string]*histSeries{},
		gauges:   map[string]float64{},
	}
}

// ring is one series' buckets in every window: per window, the slots
// and the epoch (absolute bucket number) each slot holds, -1 before its
// first touch. A slot left over from an older epoch is reset lazily, at
// its first touch after the ring wraps.
type ring[T any] struct {
	slots  [][]T
	epochs [][]int64
	reset  func(*T)
}

func newRing[T any](defs []Def, reset func(*T)) *ring[T] {
	r := &ring[T]{slots: make([][]T, len(defs)), epochs: make([][]int64, len(defs)), reset: reset}
	for i, d := range defs {
		r.slots[i] = make([]T, d.Count)
		r.epochs[i] = make([]int64, d.Count)
		for j := range r.epochs[i] {
			r.epochs[i][j] = -1
		}
	}
	return r
}

// at returns window i's slot for now, reset if it held an older epoch.
func (r *ring[T]) at(i int, d Def, now time.Time) *T {
	e := epoch(d, now)
	slot := int(e % int64(d.Count))
	if r.epochs[i][slot] != e {
		r.epochs[i][slot] = e
		r.reset(&r.slots[i][slot])
	}
	return &r.slots[i][slot]
}

// each calls fn on window i's slots that still lie inside the window at
// now.
func (r *ring[T]) each(i int, d Def, now time.Time, fn func(*T)) {
	e := epoch(d, now)
	for slot, be := range r.epochs[i] {
		if be >= 0 && be > e-int64(d.Count) {
			fn(&r.slots[i][slot])
		}
	}
}

// histSeries is one histogram's rings of bucket samples, each capped at
// BucketCap, and the one generator all its reservoirs draw from, so
// reservoir decisions are reproducible for a fixed observation order.
type histSeries struct {
	*ring[obs.Sample]
	rng *rand.Rand
}

func (r *Registry) counter(name string) *ring[float64] {
	cs, ok := r.counters[name]
	if !ok {
		cs = newRing(r.defs, func(v *float64) { *v = 0 })
		r.counters[name] = cs
	}
	return cs
}

func (r *Registry) hist(name string) *histSeries {
	hs, ok := r.hists[name]
	if !ok {
		hs = &histSeries{ring: newRing(r.defs, (*obs.Sample).Reset), rng: obs.SeriesRand(name)}
		r.hists[name] = hs
	}
	return hs
}

// epoch is the absolute bucket number of t under d.
func epoch(d Def, t time.Time) int64 { return t.UnixNano() / int64(d.Bucket) }

// Count adds delta to the named counter's current bucket in every window.
// Nil-safe.
func (r *Registry) Count(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	cs := r.counter(name)
	for i, d := range r.defs {
		*cs.at(i, d, now) += delta
	}
}

// Gauge records the gauge's latest value (gauges are instantaneous, so no
// windowing — the snapshot reports the last set value). Nil-safe.
func (r *Registry) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// Observe records one observation into the named histogram's current
// bucket in every window. Nil-safe.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	hs := r.hist(name)
	for i, d := range r.defs {
		hs.at(i, d, now).Observe(v, BucketCap, hs.rng)
	}
}

// CounterWindow is one counter over one window.
type CounterWindow struct {
	// Sum is the counter's increase over the window.
	Sum float64 `json:"sum"`
	// Rate is Sum divided by the window span, per second.
	Rate float64 `json:"rate_per_s"`
}

// HistWindow is one histogram over one window. Percentiles use the
// nearest-rank method over the window's (sampled) observations; Count and
// Max are exact.
type HistWindow struct {
	Count int     `json:"count"`
	Rate  float64 `json:"rate_per_s"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time windowed view: series name → window name →
// stats. Windows lists the definitions in resolution order so renderers
// need not hard-code them.
type Snapshot struct {
	Windows    []string                            `json:"windows"`
	Counters   map[string]map[string]CounterWindow `json:"counters,omitempty"`
	Gauges     map[string]float64                  `json:"gauges,omitempty"`
	Histograms map[string]map[string]HistWindow    `json:"histograms,omitempty"`
}

// Snapshot computes the windowed stats as of the registry clock's now.
// Buckets whose epoch fell off the ring (older than the window) are
// excluded, so a series that went quiet decays to zero after one span.
// Nil-safe: a nil registry returns nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	snap := &Snapshot{}
	for _, d := range r.defs {
		snap.Windows = append(snap.Windows, d.Name)
	}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]map[string]CounterWindow, len(r.counters))
		for name, cs := range r.counters {
			per := make(map[string]CounterWindow, len(r.defs))
			for i, d := range r.defs {
				var sum float64
				cs.each(i, d, now, func(v *float64) { sum += *v })
				per[d.Name] = CounterWindow{Sum: sum, Rate: sum / d.Span().Seconds()}
			}
			snap.Counters[name] = per
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			snap.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]map[string]HistWindow, len(r.hists))
		for name, hs := range r.hists {
			per := make(map[string]HistWindow, len(r.defs))
			for i, d := range r.defs {
				var all obs.Sample
				hs.each(i, d, now, all.Merge)
				st := all.Stats()
				per[d.Name] = HistWindow{Count: st.Count, Rate: float64(st.Count) / d.Span().Seconds(),
					P50: st.P50, P90: st.P90, P99: st.P99, Max: st.Max}
			}
			snap.Histograms[name] = per
		}
	}
	return snap
}
