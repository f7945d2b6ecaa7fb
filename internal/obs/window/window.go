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
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bohr/internal/stats"
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

// BucketCap bounds the observations retained per histogram bucket.
// Beyond it, seeded reservoir sampling keeps a uniform sample per bucket;
// per-bucket counts and maxima stay exact.
const BucketCap = 256

// Registry holds the windowed series. It implements obs.Sink, so
// attaching it via Collector.SetSink mirrors every counter increment,
// gauge set, and histogram observation into the rings.
type Registry struct {
	mu       sync.Mutex
	defs     []Def
	now      func() time.Time
	counters map[string]*counterSeries
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
		counters: map[string]*counterSeries{},
		hists:    map[string]*histSeries{},
		gauges:   map[string]float64{},
	}
}

// counterSeries is one counter's rings: per window, a slot sum and the
// epoch (absolute bucket number) it belongs to, so stale slots are lazily
// reset on first touch after the ring wraps.
type counterSeries struct {
	sums   [][]float64
	epochs [][]int64
}

// histSeries is one histogram's rings: per window and slot, a bounded
// observation reservoir plus exact count and max. One seeded generator
// per series keeps reservoir decisions reproducible for a fixed
// observation order; its source is seeded at the first draw, so a series
// that never passes BucketCap in a bucket never seeds one.
type histSeries struct {
	vals   [][][]float64
	seen   [][]int
	maxs   [][]float64
	epochs [][]int64
	rng    *rand.Rand
}

func (r *Registry) counter(name string) *counterSeries {
	cs, ok := r.counters[name]
	if !ok {
		cs = &counterSeries{
			sums:   make([][]float64, len(r.defs)),
			epochs: make([][]int64, len(r.defs)),
		}
		for i, d := range r.defs {
			cs.sums[i] = make([]float64, d.Count)
			cs.epochs[i] = make([]int64, d.Count)
			for j := range cs.epochs[i] {
				cs.epochs[i][j] = -1
			}
		}
		r.counters[name] = cs
	}
	return cs
}

func (r *Registry) hist(name string) *histSeries {
	hs, ok := r.hists[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		hs = &histSeries{
			vals:   make([][][]float64, len(r.defs)),
			seen:   make([][]int, len(r.defs)),
			maxs:   make([][]float64, len(r.defs)),
			epochs: make([][]int64, len(r.defs)),
			rng:    stats.NewLazyRand(int64(h.Sum64())),
		}
		for i, d := range r.defs {
			hs.vals[i] = make([][]float64, d.Count)
			hs.seen[i] = make([]int, d.Count)
			hs.maxs[i] = make([]float64, d.Count)
			hs.epochs[i] = make([]int64, d.Count)
			for j := range hs.epochs[i] {
				hs.epochs[i][j] = -1
			}
		}
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
		e := epoch(d, now)
		slot := int(e % int64(d.Count))
		if cs.epochs[i][slot] != e {
			cs.epochs[i][slot] = e
			cs.sums[i][slot] = 0
		}
		cs.sums[i][slot] += delta
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
		e := epoch(d, now)
		slot := int(e % int64(d.Count))
		if hs.epochs[i][slot] != e {
			hs.epochs[i][slot] = e
			hs.vals[i][slot] = hs.vals[i][slot][:0]
			hs.seen[i][slot] = 0
			hs.maxs[i][slot] = 0
		}
		if hs.seen[i][slot] == 0 || v > hs.maxs[i][slot] {
			hs.maxs[i][slot] = v
		}
		hs.seen[i][slot]++
		if len(hs.vals[i][slot]) < BucketCap {
			hs.vals[i][slot] = append(hs.vals[i][slot], v)
		} else if j := hs.rng.Intn(hs.seen[i][slot]); j < BucketCap {
			hs.vals[i][slot][j] = v
		}
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
				e := epoch(d, now)
				var sum float64
				for slot := 0; slot < d.Count; slot++ {
					if be := cs.epochs[i][slot]; be >= 0 && be > e-int64(d.Count) {
						sum += cs.sums[i][slot]
					}
				}
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
				e := epoch(d, now)
				var vals []float64
				var count int
				var max float64
				for slot := 0; slot < d.Count; slot++ {
					if be := hs.epochs[i][slot]; be >= 0 && be > e-int64(d.Count) {
						vals = append(vals, hs.vals[i][slot]...)
						if hs.seen[i][slot] > 0 && (count == 0 || hs.maxs[i][slot] > max) {
							max = hs.maxs[i][slot]
						}
						count += hs.seen[i][slot]
					}
				}
				hw := HistWindow{Count: count, Rate: float64(count) / d.Span().Seconds(), Max: max}
				if len(vals) > 0 {
					sort.Float64s(vals)
					rank := func(q float64) float64 {
						i := int(math.Ceil(q*float64(len(vals)))) - 1
						if i < 0 {
							i = 0
						}
						if i >= len(vals) {
							i = len(vals) - 1
						}
						return vals[i]
					}
					hw.P50, hw.P90, hw.P99 = rank(0.50), rank(0.90), rank(0.99)
				}
				per[d.Name] = hw
			}
			snap.Histograms[name] = per
		}
	}
	return snap
}
