// Package cache is the bounded memo store under serve's query result
// cache. The wrapper keeps its own change-counter keying, dataset
// index and hit/miss accounting; this package owns capacity.
//
// A Store evicts least-recently-used entries over a *logical clock*,
// never wall time. The clock only moves when the driver calls Advance at
// a deterministic point (a result insert), so eviction order is a pure
// function of (stamp, key): which entries die never depends on which
// goroutine touched them first.
//
// Capacity is enforced in both entry count and estimated resident
// bytes, at Advance time. Between advances the store may transiently
// overshoot. Eviction, live-entry and resident-byte levels are
// published on an obs.Collector as *additive counter deltas*, so stores
// sharing one metric name aggregate correctly, which a last-writer-wins
// gauge would not.
package cache

import (
	"cmp"
	"sync"

	"bohr/internal/obs"
)

// Built-in default capacities: generous enough that single-shot runs
// never feel them, finite so a long dynamic run cannot grow without
// bound (the ROADMAP eviction item).
const (
	DefaultEntries = 4096
	DefaultBytes   = 256 << 20 // 256 MiB of estimated resident bytes
)

// Caps bounds a store. A zero or negative field means unlimited in that
// dimension.
type Caps struct {
	// Entries caps live entry count.
	Entries int
	// Bytes caps the summed size estimates of live entries.
	Bytes int64
}

// Unlimited returns caps that never evict. Its fields are negative, so
// it differs from the zero Caps, which configs such as serve.Config read
// as "use DefaultCaps".
func Unlimited() Caps { return Caps{Entries: -1, Bytes: -1} }

// DefaultCaps returns the built-in default capacities.
func DefaultCaps() Caps { return Caps{Entries: DefaultEntries, Bytes: DefaultBytes} }

// entry is one live memo: its key, the value, its size estimate, the
// logical clock stamp of its last touch, and where it sits in the victim
// heap.
type entry[K cmp.Ordered, V any] struct {
	key   K
	val   V
	bytes int64
	used  uint64
	at    int
}

// Store is a bounded memo store with deterministic LRU eviction. All
// methods are mutex-guarded and safe for concurrent use; a nil *Store
// is a valid no-op that never holds anything.
type Store[K cmp.Ordered, V any] struct {
	mu      sync.Mutex
	name    string
	caps    Caps
	sizeOf  func(K, V) int64
	entries map[K]*entry[K, V]
	// victims orders the live entries as eviction takes them: a binary
	// min-heap on (stamp, key), so the next victim is its root.
	victims []*entry[K, V]
	bytes   int64
	clock   uint64
	col     *obs.Collector
}

// New creates a store. name prefixes the metric names registered on the
// collector ("<name>.evictions", "<name>.entries", "<name>.bytes", all
// registered at zero immediately so they appear in snapshots before the
// first access). sizeOf estimates one entry's resident bytes; nil
// disables byte accounting (entry-count cap only). col may be nil.
func New[K cmp.Ordered, V any](name string, caps Caps, col *obs.Collector, sizeOf func(K, V) int64) *Store[K, V] {
	s := &Store[K, V]{
		name:    name,
		caps:    caps,
		sizeOf:  sizeOf,
		entries: make(map[K]*entry[K, V]),
		col:     col,
	}
	col.Count(name+".evictions", 0)
	col.Count(name+".entries", 0)
	col.Count(name+".bytes", 0)
	return s
}

// Get returns the value under k and stamps it as used this round.
func (s *Store[K, V]) Get(k K) (V, bool) {
	var zero V
	if s == nil {
		return zero, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return zero, false
	}
	s.touch(e)
	return e.val, true
}

// Peek returns the value under k without touching its recency — the
// accessor form for introspection that must not perturb LRU order.
func (s *Store[K, V]) Peek(k K) (V, bool) {
	var zero V
	if s == nil {
		return zero, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return zero, false
	}
	return e.val, true
}

// Put inserts or replaces the value under k, re-estimating its size and
// stamping it as used this round. Capacity is NOT enforced here — only
// Advance evicts — so concurrent puts inside one round cannot race the
// choice of victim.
func (s *Store[K, V]) Put(k K, v V) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var size int64
	if s.sizeOf != nil {
		size = s.sizeOf(k, v)
	}
	e, ok := s.entries[k]
	if !ok {
		e = &entry[K, V]{key: k, used: s.clock, at: len(s.victims)}
		s.entries[k] = e
		s.victims = append(s.victims, e)
		s.up(e.at)
		s.col.Count(s.name+".entries", 1)
	}
	s.col.Count(s.name+".bytes", float64(size-e.bytes))
	s.bytes += size - e.bytes
	e.val, e.bytes = v, size
	s.touch(e)
}

// touch stamps e as used this round. A stamp only rises, so e can only
// move down the heap. Callers hold s.mu.
func (s *Store[K, V]) touch(e *entry[K, V]) {
	if e.used != s.clock {
		e.used = s.clock
		s.down(e.at)
	}
}

// before reports whether a is evicted before b: stamp ascending, then key
// ascending — a total, deterministic order.
func before[K cmp.Ordered, V any](a, b *entry[K, V]) bool {
	return a.used < b.used || a.used == b.used && a.key < b.key
}

// swap exchanges heap positions i and j. Callers hold s.mu.
func (s *Store[K, V]) swap(i, j int) {
	h := s.victims
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}

// up moves the entry at heap position i toward the root until its parent
// goes first. Callers hold s.mu.
func (s *Store[K, V]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(s.victims[i], s.victims[parent]) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

// down moves the entry at heap position i toward the leaves until it goes
// before both children. Callers hold s.mu.
func (s *Store[K, V]) down(i int) {
	for n := len(s.victims); ; {
		first := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && before(s.victims[c], s.victims[first]) {
				first = c
			}
		}
		if first == i {
			return
		}
		s.swap(i, first)
		i = first
	}
}

// Delete removes the entry under k, if present. This is the immediate
// drop for entries known stale (their dataset changed), as opposed to
// aging out via Advance.
func (s *Store[K, V]) Delete(k K) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(k)
}

// dropLocked removes k and maintains byte and level accounting.
// Callers hold s.mu.
func (s *Store[K, V]) dropLocked(k K) {
	e, ok := s.entries[k]
	if !ok {
		return
	}
	delete(s.entries, k)
	i, last := e.at, len(s.victims)-1
	s.swap(i, last)
	s.victims[last] = nil
	s.victims = s.victims[:last]
	if i < last { // the entry that took e's place
		s.down(i)
		s.up(i)
	}
	s.bytes -= e.bytes
	s.col.Count(s.name+".entries", -1)
	s.col.Count(s.name+".bytes", -float64(e.bytes))
}

// Advance moves the logical clock one round forward and enforces the
// capacity limits. Call it from sequential driver code at round
// boundaries — never from inside a pooled kernel — so eviction decisions
// stay scheduling-independent.
func (s *Store[K, V]) Advance() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	s.enforceLocked()
}

// overLocked reports whether either cap is exceeded. Callers hold s.mu.
func (s *Store[K, V]) overLocked() bool {
	if s.caps.Entries > 0 && len(s.entries) > s.caps.Entries {
		return true
	}
	if s.caps.Bytes > 0 && s.bytes > s.caps.Bytes {
		return true
	}
	return false
}

// enforceLocked evicts least-recently-used entries until both caps
// hold. Victims go in (stamp ascending, key ascending) order — a total,
// deterministic order, so the same access history always evicts the same
// entries. Each victim is the heap's root, taken in O(log n): the common
// over-cap insert evicts exactly one entry and allocates nothing. Callers
// hold s.mu.
func (s *Store[K, V]) enforceLocked() {
	for s.overLocked() && len(s.victims) > 0 {
		s.dropLocked(s.victims[0].key)
		s.col.Count(s.name+".evictions", 1)
	}
}

// Len reports the number of live entries.
func (s *Store[K, V]) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
