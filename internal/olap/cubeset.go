package olap

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"bohr/internal/cache"
	"bohr/internal/obs"
)

// Counter names the cube-set cache registers on an attached collector.
// They flow into core.Report via the metrics snapshot. The backing
// store additionally registers olap.cubeset.{entries,bytes,evictions}
// level counters; one collector attached to many per-site cube sets
// aggregates them additively.
const (
	CounterCubeCacheHits   = "olap.cubeset.hits"
	CounterCubeCacheMisses = "olap.cubeset.misses"
)

// cubeSetMetricPrefix names the bounded store's level counters.
const cubeSetMetricPrefix = "olap.cubeset"

// QueryTypeID names one query type: the set of attributes a class of
// recurring queries accesses (§4.1). Two queries over the same attributes
// are the same type and share one dimension cube.
type QueryTypeID string

// QueryTypeFor derives the canonical ID for an attribute set: sorted,
// comma-joined dimension names.
func QueryTypeFor(dims []string) QueryTypeID {
	cp := append([]string(nil), dims...)
	sort.Strings(cp)
	return QueryTypeID(strings.Join(cp, ","))
}

// derivedState is one memoized dimension cube plus its maintenance
// state: the rows buffered since it was last brought current and the
// base generation it reflects.
type derivedState struct {
	cube    *Cube
	pending []Row  // rows not yet folded into the cube
	builtAt uint64 // base generation the cube reflects
}

// derivedBytes estimates one derived state's resident size: the cube's
// storage estimate plus the pending-row buffer.
func derivedBytes(id QueryTypeID, st *derivedState) int64 {
	n := int64(len(id)) + 64
	if st == nil {
		return n
	}
	if st.cube != nil {
		n += st.cube.StorageBytes()
	}
	for _, r := range st.pending {
		n += 32
		for _, c := range r.Coords {
			n += int64(len(c))
		}
	}
	return n
}

// CubeSet manages the base OLAP cube of one dataset at one site plus the
// materialized dimension cubes for each registered query type. New data
// generated while a query is running are buffered; the dimension cube the
// incoming query needs is updated eagerly, the others lazily in the
// background (§4.1), which FlushBackground models.
//
// The derived cubes double as a versioned memo: each remembers the base
// cube's generation it was built at, and Prepare returns it without any
// work when the generation still matches and no rows are buffered — the
// recurring-round cache of PR 4. The memo lives in a bounded store
// (cache.DefaultCaps by default) whose logical clock is the base cube's
// generation: inserts advance it, and cold derived cubes (with their
// pending buffers) are evicted LRU once over capacity. Registration is
// permanent — an evicted query type rebuilds from the base cube on its
// next Prepare, correct by construction since the base always holds
// every row. Hits and misses are counted, and reported through an
// attached obs.Collector when one is set.
type CubeSet struct {
	mu     sync.Mutex
	base   *Cube
	dims   map[QueryTypeID][]string // permanent registry, survives eviction
	store  *cache.Store[QueryTypeID, *derivedState]
	hits   uint64
	misses uint64
	col    *obs.Collector
}

// NewCubeSet creates a cube set over the given base schema, bounded by
// the process-wide default capacities.
func NewCubeSet(schema *Schema) *CubeSet {
	return NewCubeSetSized(schema, cache.DefaultCaps())
}

// NewCubeSetSized creates a cube set with explicit derived-cube capacity
// limits (cache.Unlimited() disables eviction).
func NewCubeSetSized(schema *Schema, caps cache.Caps) *CubeSet {
	return &CubeSet{
		base:  NewCube(schema),
		dims:  make(map[QueryTypeID][]string),
		store: cache.New[QueryTypeID, *derivedState](cubeSetMetricPrefix, caps, nil, derivedBytes),
	}
}

// AttachObs routes the cache's hit/miss and store-level counters to a
// collector (nil detaches). Counters are registered immediately so they
// appear in the metrics snapshot even before the first Prepare; the
// store's current entry/byte levels transfer to the new collector.
func (cs *CubeSet) AttachObs(col *obs.Collector) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.col = col
	col.Count(CounterCubeCacheHits, 0)
	col.Count(CounterCubeCacheMisses, 0)
	cs.store.SetCollector(col)
}

// CacheStats reports how many Prepare calls were served straight from a
// current dimension cube (hits) versus had to fold or rebuild (misses).
func (cs *CubeSet) CacheStats() (hits, misses uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.hits, cs.misses
}

// CacheEvictions reports how many derived cubes were evicted over
// capacity.
func (cs *CubeSet) CacheEvictions() uint64 {
	return cs.store.Evictions()
}

// Base returns the base cube. Callers must not mutate it directly;
// use Insert.
func (cs *CubeSet) Base() *Cube {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.base
}

// RegisterQueryType materializes a dimension cube for the attribute set and
// returns its ID. Registering an existing type is a no-op.
func (cs *CubeSet) RegisterQueryType(dims []string) (QueryTypeID, error) {
	id := QueryTypeFor(dims)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.dims[id]; ok {
		return id, nil
	}
	dc, err := cs.base.DimensionCube(dims...)
	if err != nil {
		return "", fmt.Errorf("olap: register query type: %w", err)
	}
	cs.dims[id] = append([]string(nil), dims...)
	cs.store.Put(id, &derivedState{cube: dc, builtAt: cs.base.Generation()})
	return id, nil
}

// QueryTypes returns the registered query type IDs in sorted order.
// Registration is permanent: evicted types still appear here.
func (cs *CubeSet) QueryTypes() []QueryTypeID {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.idsLocked()
}

func (cs *CubeSet) idsLocked() []QueryTypeID {
	out := make([]QueryTypeID, 0, len(cs.dims))
	for id := range cs.dims {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Insert adds new raw rows: the base cube is updated immediately while
// every live materialized dimension cube only gets the rows buffered, to
// be folded in by an eager Prepare (for the query type about to run) or
// by FlushBackground. The store's logical clock then advances to the new
// base generation, which is where over-capacity derived cubes age out.
func (cs *CubeSet) Insert(rows ...Row) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i, r := range rows {
		if err := cs.base.Insert(r); err != nil {
			return fmt.Errorf("olap: cubeset insert row %d: %w", i, err)
		}
	}
	for _, id := range cs.idsLocked() {
		st, ok := cs.store.Peek(id)
		if !ok {
			continue // evicted: rebuilt from base on next Prepare
		}
		st.pending = append(st.pending, rows...)
		cs.store.Put(id, st) // refresh the size estimate
	}
	cs.store.AdvanceTo(cs.base.Generation())
	return nil
}

// Prepare eagerly folds the pending rows into the dimension cube of one
// query type — what Bohr does for the cube "used by the coming query" —
// and returns that cube. When nothing changed since the cube was last
// brought current (no buffered rows, base generation unchanged) the
// stored cube is returned as-is and counted as a cache hit. An evicted
// type rebuilds its cube from the base and counts as a miss.
func (cs *CubeSet) Prepare(id QueryTypeID) (*Cube, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.prepareLocked(id)
}

func (cs *CubeSet) prepareLocked(id QueryTypeID) (*Cube, error) {
	dims, registered := cs.dims[id]
	if !registered {
		return nil, fmt.Errorf("olap: prepare: unknown query type %q", id)
	}
	st, live := cs.store.Get(id)
	if live && len(st.pending) == 0 && st.builtAt == cs.base.Generation() {
		cs.hits++
		cs.col.Count(CounterCubeCacheHits, 1)
		return st.cube, nil
	}
	cs.misses++
	cs.col.Count(CounterCubeCacheMisses, 1)
	switch {
	case live && len(st.pending) > 0:
		// Incremental maintenance: the pending buffer is exactly the
		// base-cube delta since builtAt, so folding it brings the
		// derived cube back to the current generation.
		srcIdx := make([]int, len(dims))
		for i, d := range dims {
			srcIdx[i] = cs.base.Schema().Index(d)
		}
		for _, r := range st.pending {
			coords := make([]string, len(dims))
			for i, si := range srcIdx {
				coords[i] = r.Coords[si]
			}
			st.cube.add(coords, r.Measure, 1)
			st.cube.rows++
		}
		st.pending = nil
	case live:
		// Generation moved without buffered rows (a future direct-base
		// mutation path): rebuild from the base cube, the always-correct
		// fallback the generation key exists to guard.
		nb, err := cs.base.DimensionCube(dims...)
		if err != nil {
			return nil, fmt.Errorf("olap: prepare: %w", err)
		}
		*st.cube = *nb
	default:
		// Evicted: rebuild from the base cube, which holds every row.
		nb, err := cs.base.DimensionCube(dims...)
		if err != nil {
			return nil, fmt.Errorf("olap: prepare: %w", err)
		}
		st = &derivedState{cube: nb}
	}
	st.builtAt = cs.base.Generation()
	cs.store.Put(id, st)
	return st.cube, nil
}

// FlushBackground folds pending rows into every dimension cube, modeling
// the paper's background update of the cubes other queries use. It returns
// the number of cubes that had pending work.
func (cs *CubeSet) FlushBackground() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, id := range cs.idsLocked() {
		st, ok := cs.store.Peek(id)
		if !ok || len(st.pending) == 0 {
			continue
		}
		n++
		// prepareLocked cannot fail for a live registered id.
		if _, err := cs.prepareLocked(id); err != nil {
			panic("olap: flush background: " + err.Error())
		}
	}
	return n
}

// PendingRows reports how many buffered rows a query type's cube is
// behind. An evicted type has no buffer — it reports zero and rebuilds
// in full on its next Prepare.
func (cs *CubeSet) PendingRows(id QueryTypeID) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	st, ok := cs.store.Peek(id)
	if !ok {
		return 0
	}
	return len(st.pending)
}

// StorageBytes returns the combined footprint of the base cube and all
// live materialized dimension cubes, for Table 6's storage accounting.
func (cs *CubeSet) StorageBytes() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	b := cs.base.StorageBytes()
	cs.store.Range(func(_ QueryTypeID, st *derivedState) bool {
		b += st.cube.StorageBytes()
		return true
	})
	return b
}
