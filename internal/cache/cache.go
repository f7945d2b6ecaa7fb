// Package cache is serve's query result cache: finished rows under a key
// the caller derives (serve keys on the normalized statement and the
// change counter of the dataset it read), each entry filed under that
// dataset so ingest can drop a dataset's entries at once.
//
// The cache evicts least-recently-used entries over a *logical clock*,
// never wall time. The clock moves once per Insert, so eviction order is
// a pure function of (stamp, key): which entries die never depends on
// which goroutine touched them first.
//
// Capacity is enforced in both entry count and estimated resident bytes,
// at each Insert. Eviction, live-entry and resident-byte levels are
// published on an obs.Collector as *additive counter deltas*, so caches
// sharing one collector aggregate correctly, which a last-writer-wins
// gauge would not.
package cache

import (
	"sync"

	"bohr/internal/engine"
	"bohr/internal/obs"
)

// Built-in default capacities: generous enough that single-shot runs
// never feel them, finite so a long dynamic run cannot grow without
// bound (the ROADMAP eviction item).
const (
	DefaultEntries = 4096
	DefaultBytes   = 256 << 20 // 256 MiB of estimated resident bytes
)

// metricPrefix names the level counters: metricPrefix+".evictions",
// ".entries" and ".bytes".
const metricPrefix = "serve.results"

// Caps bounds a cache. A zero or negative field means unlimited in that
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

// entry is one live result: its key, the dataset it read, its rows, its
// size estimate, the logical clock stamp of its last touch, and where it
// sits in the victim heap.
type entry struct {
	key, dataset string
	rows         []engine.KV
	bytes        int64
	used         uint64
	at           int
}

// Results is a bounded result cache with deterministic LRU eviction.
// All methods are guarded by one mutex and safe for concurrent use; a
// nil *Results is a valid no-op that never holds anything.
type Results struct {
	mu      sync.Mutex
	caps    Caps
	entries map[string]*entry
	// files holds every live entry under the dataset it read; each drop
	// updates it, so it always matches entries.
	files map[string]map[string]*entry
	// victims orders the live entries as eviction takes them: a binary
	// min-heap on (stamp, key), so the next victim is its root.
	victims []*entry
	bytes   int64
	clock   uint64
	col     *obs.Collector
}

// New creates a cache; col may be nil. The level counters
// serve.results.{evictions,entries,bytes} are registered at zero
// immediately, so they appear in snapshots before the first access.
func New(caps Caps, col *obs.Collector) *Results {
	col.Count(metricPrefix+".evictions", 0)
	col.Count(metricPrefix+".entries", 0)
	col.Count(metricPrefix+".bytes", 0)
	return &Results{
		caps:    caps,
		entries: map[string]*entry{},
		files:   map[string]map[string]*entry{},
		col:     col,
	}
}

// sizeOf estimates an entry's resident bytes: its key, and each row's
// key and value.
func sizeOf(key string, rows []engine.KV) int64 {
	n := int64(len(key))
	for _, kv := range rows {
		n += int64(len(kv.Key)) + 8
	}
	return n
}

// Get returns the rows under key and stamps the entry as used this
// round.
func (r *Results) Get(key string) ([]engine.KV, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if !ok {
		return nil, false
	}
	r.touch(e)
	return e.rows, true
}

// Insert stores rows under key, filed under the dataset the statement
// read, replacing any entry the key held. The entry is stamped this
// round; then the clock moves one round and least-recently-used entries
// go until both caps hold, so entries untouched for a full capacity
// cycle age out.
func (r *Results) Insert(key, dataset string, rows []engine.KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[key]; ok {
		r.drop(old)
	}
	e := &entry{key: key, dataset: dataset, rows: rows, bytes: sizeOf(key, rows), used: r.clock, at: len(r.victims)}
	r.entries[key] = e
	file := r.files[dataset]
	if file == nil {
		file = map[string]*entry{}
		r.files[dataset] = file
	}
	file[key] = e
	r.victims = append(r.victims, e)
	r.up(e.at)
	r.bytes += e.bytes
	r.col.Count(metricPrefix+".entries", 1)
	r.col.Count(metricPrefix+".bytes", float64(e.bytes))

	r.clock++
	for r.over() {
		r.drop(r.victims[0])
		r.col.Count(metricPrefix+".evictions", 1)
	}
}

// InvalidateDataset drops every entry filed under dataset and returns
// how many it dropped. The ingest path calls it when new rows land, so
// the memory frees at once instead of waiting for LRU aging.
func (r *Results) InvalidateDataset(dataset string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	file := r.files[dataset]
	n := len(file)
	for _, e := range file {
		r.drop(e)
	}
	return n
}

// Len reports the number of live entries.
func (r *Results) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// drop removes e from the index, its dataset's file and the heap, and
// maintains byte and level accounting. Callers hold r.mu.
func (r *Results) drop(e *entry) {
	delete(r.entries, e.key)
	file := r.files[e.dataset]
	delete(file, e.key)
	if len(file) == 0 {
		delete(r.files, e.dataset)
	}
	i, last := e.at, len(r.victims)-1
	r.swap(i, last)
	r.victims[last] = nil
	r.victims = r.victims[:last]
	if i < last { // the entry that took e's place
		r.down(i)
		r.up(i)
	}
	r.bytes -= e.bytes
	r.col.Count(metricPrefix+".entries", -1)
	r.col.Count(metricPrefix+".bytes", -float64(e.bytes))
}

// over reports whether a cap is exceeded. Callers hold r.mu.
func (r *Results) over() bool {
	return r.caps.Entries > 0 && len(r.entries) > r.caps.Entries ||
		r.caps.Bytes > 0 && r.bytes > r.caps.Bytes
}

// touch stamps e as used this round. A stamp only rises, so e can only
// move down the heap. Callers hold r.mu.
func (r *Results) touch(e *entry) {
	if e.used != r.clock {
		e.used = r.clock
		r.down(e.at)
	}
}

// before reports whether a is evicted before b: stamp ascending, then key
// ascending — a total, deterministic order.
func before(a, b *entry) bool {
	return a.used < b.used || a.used == b.used && a.key < b.key
}

// swap exchanges heap positions i and j. Callers hold r.mu.
func (r *Results) swap(i, j int) {
	h := r.victims
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}

// up moves the entry at heap position i toward the root until its parent
// goes first. Callers hold r.mu.
func (r *Results) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(r.victims[i], r.victims[parent]) {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

// down moves the entry at heap position i toward the leaves until it goes
// before both children. Callers hold r.mu.
func (r *Results) down(i int) {
	for n := len(r.victims); ; {
		first := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && before(r.victims[c], r.victims[first]) {
				first = c
			}
		}
		if first == i {
			return
		}
		r.swap(i, first)
		i = first
	}
}
