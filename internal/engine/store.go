package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Store holds the records of one dataset at one site. It owns the record
// slice: every mutation goes through Add, remove or Restore, each of
// which bumps the store's version, so "did this site's data change" is a
// counter comparison instead of a scan, and gives the store a fresh
// content, so "do these two stores hold the same records" is a pointer
// comparison and state derived from the records (derive) lives exactly as
// long as they do. Once a similarity-aware move has touched the store it
// also keeps a cell index for that mover's projection (the dimension-cube
// view of §4.1) up to date at write time, so the next move ranks cells
// instead of re-projecting, re-counting and re-sorting every record.
//
// A record slice the store has handed out is never modified afterwards:
// Add appends beyond its length and remove installs a new slice. A reader
// that fetched it under the owner's lock may keep scanning it unlocked,
// and a clone shares it. A slice nobody was handed is the store's alone,
// so remove compacts it in place. No read path (Records, Len, Version,
// derive, clone of the source) writes the records; the ones that hand the
// slice out only set the atomic escape bit, so readers under a shared lock
// stay read-only, and what they memoize goes into the content, under its
// own lock. Only this file touches recs (TestOnlyStoreTouchesRecords), so
// every route by which the slice leaves the store is one that marks it.
type Store struct {
	recs []KV
	// escaped is set once recs may be held outside the store: handed out
	// by Records, shared with a clone, adopted by Restore, or kept by a
	// derived value. A remove copying into a fresh slice clears it.
	escaped atomic.Bool
	version uint64
	// gen counts the mutations that renumber records (remove, Restore); a
	// selection is good for one gen.
	gen uint64
	// content identifies the record sequence: replaced on every mutation,
	// shared with clones. nil only for a store that never held a record.
	content *content
	// idx is nil until a similarity-aware mover selects from or toward
	// the store, and again after Restore. An index the content's memo
	// holds is shared with every store of that content and immutable: the
	// store copies it before its first write (ownIndex).
	idx *cellIndex
}

// content is the identity of one record sequence, and the memo of pure
// functions of it. Stores with the same content hold the same records in
// the same order; the converse does not hold (equal records reached by
// different mutations have different contents).
type content struct {
	mu   sync.Mutex
	memo map[any]*derived
	// dicts are the key-field dictionaries of the store's lineage
	// (columns.go), and carry, per width, the lineage's last key columns —
	// and its last key hashes — with the writes since: what a content hands
	// its successor, so that the successor's columns re-encode, and its
	// hashes re-hash, only what the writes appended.
	dicts *dictionaries
	carry []carried
}

// successor is the content of the store's next record sequence after a
// write that appended added records or took the ones at ascending positions
// removed: a new identity, an empty memo, the lineage's dictionaries, and
// its carries with the write noted — or dropped, once the writes since their
// columns were built have moved more records than those columns describe,
// past which a fresh encode costs no more. Nothing is encoded here: a store
// is written about twice between reads, and only a read pays for columns.
func (ct *content) successor(added int, removed []int) *content {
	if ct == nil {
		return &content{}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	next := &content{dicts: ct.dicts}
	for _, c := range ct.carry {
		if c.moved += added + len(removed); c.moved > c.held {
			continue
		}
		if len(removed) > 0 {
			// Clipped: a clone writing beside its source extends its own list.
			c.removes = append(slices.Clip(c.removes), removed)
		}
		next.carry = append(next.carry, c)
	}
	return next
}

// derived is one memoized value; once makes concurrent first lookups
// share a single build.
type derived struct {
	once sync.Once
	val  any
	err  error
}

// derive returns build(records) memoized under key on the store's
// content: clones of one snapshot share the value, and the store's next
// mutation leaves it behind with the content it described. build must be
// a pure function of the records and of what key names — key carries
// every other input — and its value must not be modified afterwards.
// Concurrent first lookups run build once; hit is false for the one
// caller that ran it. A failed build is not kept. A store that never held
// a record has no content: build runs unmemoized.
func derive[T any](s *Store, key any, build func(records []KV) (T, error)) (val T, hit bool, err error) {
	if s == nil || s.content == nil {
		val, err = build(nil)
		return val, false, err
	}
	return memo(s.content, s.share(), key, build)
}

// memo is derive on a content and the records it identifies, which the
// caller has already handed out: a layout's, for the key columns and
// hashes of the records it lays out.
func memo[T any](ct *content, recs []KV, key any, build func(records []KV) (T, error)) (val T, hit bool, err error) {
	ct.mu.Lock()
	d := ct.memo[key]
	if d == nil {
		if ct.memo == nil {
			ct.memo = make(map[any]*derived)
		}
		d = &derived{}
		ct.memo[key] = d
	}
	ct.mu.Unlock()
	hit = true
	d.once.Do(func() {
		hit = false
		v, berr := build(recs)
		// Under the lock: ownIndex compares val without going through once.
		ct.mu.Lock()
		d.val, d.err = v, berr
		if berr != nil {
			delete(ct.memo, key)
		}
		ct.mu.Unlock()
	})
	if d.err != nil {
		return val, hit, d.err
	}
	val, _ = d.val.(T)
	return val, hit, nil
}

// Records returns the store's records (nil for a nil or empty store).
func (s *Store) Records() []KV {
	if s == nil {
		return nil
	}
	return s.share()
}

// Len returns the number of records (0 for a nil store) without handing
// the slice out.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return len(s.recs)
}

// record returns record i without handing the slice out.
func (s *Store) record(i int) KV { return s.recs[i] }

// share returns the record slice, marking it as held outside the store.
func (s *Store) share() []KV {
	if !s.escaped.Load() {
		s.escaped.Store(true)
	}
	return s.recs
}

// Version returns the store's mutation counter. It rises by at least one
// on every Add of records, every remove that takes records and every
// Restore, and never otherwise; a clone starts at its source's version
// (the two diverge afterwards, so across objects a version is not a
// content identity — the content is). A nil store is at version 0.
func (s *Store) Version() uint64 {
	if s == nil {
		return 0
	}
	return s.version
}

// Add appends records. With an index present it costs one projection and
// one map lookup per added record.
func (s *Store) Add(records ...KV) {
	if len(records) == 0 {
		return
	}
	s.recs = append(s.recs, records...)
	s.version++
	if s.idx != nil {
		s.ownIndex()
		for _, r := range records {
			s.idx.add(r.Key)
		}
	}
	s.content = s.content.successor(len(records), nil)
}

// Restore replaces the store's records wholesale (a snapshot load). The
// store adopts the slice with its capacity clipped, as a clone does, so
// its next Add reallocates instead of writing into an array another
// holder of the slice may still read or append to. The index is dropped
// and rebuilt by the next similarity-aware move, and the key dictionaries
// and columns start over with the next Select: nothing is carried.
func (s *Store) Restore(records []KV) {
	s.recs = records[:len(records):len(records)]
	s.escaped.Store(true)
	s.version++
	s.gen++
	s.idx = nil
	s.content = &content{}
}

// clone returns a store with the same records, version and content in
// O(1): the record slice is shared with its capacity clipped, so an Add on
// either side lands outside what the other can reach (the source appends
// past the clone's capacity, the clone reallocates), and the index is
// shared through the content's memo, where whichever side writes first
// copies it.
func (s *Store) clone() *Store {
	n := len(s.recs)
	out := &Store{recs: s.share()[:n:n], version: s.version, gen: s.gen, content: s.content}
	out.escaped.Store(true)
	if s.idx != nil && s.content != nil {
		out.idx, _, _ = derive(s, s.idx.view, func([]KV) (*cellIndex, error) { return s.idx, nil })
	}
	return out
}

// ownIndex makes the store's index private ahead of a write.
func (s *Store) ownIndex() {
	if s.content == nil {
		return
	}
	s.content.mu.Lock()
	d := s.content.memo[s.idx.view]
	shared := d != nil && d.val == any(s.idx)
	s.content.mu.Unlock()
	if shared {
		s.idx = s.idx.clone()
	}
}

// cellIndex is the write-time-maintained column similarity-aware movement
// reads: the store's records grouped into cells by their key in a View. Cell
// ids are dense and stable — a cell whose last record left keeps its id
// at count zero — so per-cell state is an array lookup.
type cellIndex struct {
	view View
	ids  map[string]int32 // projected key → cell id
	// more is a dry run's fork's map of the cells new to it, interned
	// beside the ids it shares with the column it forked; nil elsewhere.
	more  map[string]int32
	keys  []string // cell id → projected key
	count []int    // cell id → live records
	// cell is the cell id of each record, parallel to the store's
	// records; nil for an index that only describes a destination.
	cell []int32
}

func newCellIndex(v View, sizeHint int) *cellIndex {
	return &cellIndex{view: v, ids: make(map[string]int32, sizeHint)}
}

// intern returns the id of the cell with this projected key.
func (ix *cellIndex) intern(cell string) int32 {
	id, ok := ix.id(cell)
	if !ok {
		id = int32(len(ix.keys))
		if ix.more != nil {
			ix.more[cell] = id
		} else {
			ix.ids[cell] = id
		}
		ix.keys = append(ix.keys, cell)
		ix.count = append(ix.count, 0)
	}
	return id
}

// id looks up the id of the cell with this projected key.
func (ix *cellIndex) id(cell string) (int32, bool) {
	if id, ok := ix.ids[cell]; ok {
		return id, true
	}
	id, ok := ix.more[cell]
	return id, ok
}

// add indexes one appended record.
func (ix *cellIndex) add(key string) { ix.addCell(ix.view.Key(key)) }

// addCell indexes one appended record by its cell's key.
func (ix *cellIndex) addCell(cell string) int32 {
	id := ix.intern(cell)
	ix.count[id]++
	ix.cell = append(ix.cell, id)
	return id
}

// remove takes the records at ascending positions out, in place.
func (ix *cellIndex) remove(at []int) {
	for _, i := range at {
		ix.count[ix.cell[i]]--
	}
	ix.cell = ix.cell[:compact(ix.cell, ix.cell, at)]
}

// compact copies src without the elements at ascending positions at into
// dst, keeping their order, and returns how many it wrote. dst may be src:
// the copy then compacts in place.
func compact[T any](dst, src []T, at []int) int {
	w, prev := 0, 0
	for _, i := range at {
		w += copy(dst[w:], src[prev:i])
		prev = i + 1
	}
	return w + copy(dst[w:], src[prev:])
}

// forkInto makes out ix's clone for a dry run, with room for extra
// incoming records, in out's own count, cell and new-cell buffers: it
// shares ix's cell-id map and interns the cells new to it in more.
func (ix *cellIndex) forkInto(out *cellIndex, extra int) {
	count, cell, more := out.count[:0], out.cell[:0], out.more
	if more == nil {
		more = map[string]int32{}
	}
	clear(more)
	*out = *ix
	out.more = more
	out.keys = ix.keys[:len(ix.keys):len(ix.keys)]
	out.count = append(slices.Grow(count, len(ix.count)+extra), ix.count...)
	out.cell = append(slices.Grow(cell, len(ix.cell)+extra), ix.cell...)
}

func (ix *cellIndex) clone() *cellIndex {
	out := *ix
	out.ids = maps.Clone(ix.ids)
	out.keys = slices.Clone(ix.keys)
	out.count = slices.Clone(ix.count)
	out.cell = slices.Clone(ix.cell)
	return &out
}

// known returns the cell-count lookup a mover may use about this side as
// a destination: every live cell, or — topK > 0 and more live cells than
// that — only the topK largest, ties broken by key (what a probe of that
// size would have carried, §4.2).
func (ix *cellIndex) known(topK int) func(cell string) int {
	all := CellCounts{ix}.Count
	if topK <= 0 {
		return all
	}
	buf := topScratch.Get().(*[]int32)
	defer topScratch.Put(buf)
	top := ix.top(topK, (*buf)[:0])
	*buf = top
	if len(top) < topK {
		return all
	}
	// Only the cut is read.
	last := top[topK-1]
	minCount, maxKey := ix.count[last], ix.keys[last]
	return func(cell string) int {
		n := all(cell)
		if n > minCount || (n == minCount && cell <= maxKey) {
			return n
		}
		return 0
	}
}

// topScratch is known's buffer of live cell ids, reused across moves.
var topScratch = sync.Pool{New: func() any { return new([]int32) }}

// top returns, appended to live, the ids of the column's k largest live
// cells (larger), the k-th of them last and the rest unordered — or of every
// live cell, unordered, when k <= 0 or there are fewer than k.
func (ix *cellIndex) top(k int, live []int32) []int32 {
	live = slices.Grow(live, len(ix.count))
	for id, n := range ix.count {
		if n > 0 {
			live = append(live, int32(id))
		}
	}
	if k > 0 && k <= len(live) {
		nthElement(live, k-1, ix.larger)
		live = live[:k]
	}
	return live
}

// larger orders cells by count, descending; keys are compared only between
// cells of equal count.
func (ix *cellIndex) larger(a, b int32) bool {
	if ix.count[a] != ix.count[b] {
		return ix.count[a] > ix.count[b]
	}
	return ix.keys[a] < ix.keys[b]
}

// Cell is one cell of a cell column: its projected key and how many records
// it holds.
type Cell struct {
	Key   string
	Count int
}

// CellCounts is a read-only view of a store's cell column: the store's
// records counted by projected key — the dimension cube of §4.1, as counts.
// It reads the column in place, so it stays valid only as long as nothing
// writes the store (a store's own column follows its writes).
type CellCounts struct{ ix *cellIndex }

// Cells returns the store's cell counts in the view, as a SimilarMover in
// it counts them, without writing the store: its own column when it keeps
// one for the view, else the content's. hit is false for the caller that
// built the content's.
func (s *Store) Cells(v View) (counts CellCounts, hit bool) {
	ix, hit := s.cells(v)
	return CellCounts{ix}, hit
}

// View returns the view the cells are projected in.
func (c CellCounts) View() View { return c.ix.view }

// Count returns how many records the cell with this projected key holds.
func (c CellCounts) Count(key string) int {
	if id, ok := c.ix.id(key); ok {
		return c.ix.count[id]
	}
	return 0
}

// Total returns the number of records.
func (c CellCounts) Total() int { return len(c.ix.cell) }

// Distinct returns the number of cells that hold a record; a cell whose
// records all left stays in the column at count zero and is not one.
func (c CellCounts) Distinct() int {
	n := 0
	for _, k := range c.ix.count {
		if k > 0 {
			n++
		}
	}
	return n
}

// Top returns the k largest cells (every one when k <= 0), count
// descending, then key ascending: the head of the cube's cell order, which
// is what a probe carries (§4.2). The cut is selected, so only the k are
// sorted.
func (c CellCounts) Top(k int) []Cell {
	ids := c.ix.top(k, nil)
	sort.Slice(ids, func(i, j int) bool { return c.ix.larger(ids[i], ids[j]) })
	out := make([]Cell, len(ids))
	for i, id := range ids {
		out[i] = Cell{c.ix.keys[id], c.ix.count[id]}
	}
	return out
}

// index returns the store's cell index for the view. When the store has
// none, or one for another view (a replan with different dominant
// dimensions), it adopts the content's (cells).
func (s *Store) index(v View) *cellIndex {
	s.idx, _ = s.cells(v)
	return s.idx
}

// cells is index without adopting, so it never writes the store; hit is
// false for the caller that built the content's. Copy it to write it.
func (s *Store) cells(v View) (ix *cellIndex, hit bool) {
	if s != nil && s.idx != nil && s.idx.view == v {
		return s.idx, true
	}
	ix, hit, _ = derive(s, v, func(recs []KV) (*cellIndex, error) {
		ix := newCellIndex(v, 0)
		ix.cell = make([]int32, 0, len(recs))
		for _, r := range recs {
			ix.add(r.Key)
		}
		return ix, nil
	})
	return ix, hit
}

// DstView is what a mover may learn about the destination of a move: the
// destination's own store (the transfer-time handshake of §4.2 is a
// function call between the sites' stores) or a Profile's dry-run column.
// A mover reads its source through it too.
type DstView interface {
	index(v View) *cellIndex
}

// index makes a Profile's dry-run column a side of a move.
func (ix *cellIndex) index(View) *cellIndex { return ix }

// selection is the outcome of Store.choose: the records chosen to leave,
// still in the store until remove takes them. Records appended in between
// stay; a remove or Restore in between makes the selection stale.
type selection struct {
	// records are the chosen records, in store order.
	records []KV

	store *Store
	gen   uint64
	// at are the ascending positions of records in the store; remove hands
	// them to the successor content's carry, so they are never modified.
	at []int
}

// choose has the mover choose n records (all of them when n exceeds the
// store) to move toward dst. It does not change the store's records; a
// similarity-aware mover builds the store's — and a store destination's —
// cell index on first use.
func (s *Store) choose(m Mover, dst DstView, n int, rng *rand.Rand) selection {
	sel := selection{store: s, gen: s.gen, at: selectAt(m, s, len(s.recs), dst, n, rng)}
	if len(sel.at) == 0 {
		return sel
	}
	sel.records = make([]KV, len(sel.at))
	for k, i := range sel.at {
		sel.records[k] = s.recs[i]
	}
	return sel
}

// selectAt is choose's choice of positions out of a source of size records.
func selectAt(m Mover, src DstView, size int, dst DstView, n int, rng *rand.Rand) []int {
	if n <= 0 || size == 0 {
		return nil
	}
	if n < size {
		return m.pick(src, size, dst, n, rng)
	}
	at := make([]int, size)
	for i := range at {
		at[i] = i
	}
	return at
}

// remove takes a selection's records out of the store in one
// order-preserving pass; the kept records keep their relative order. A
// slice nobody was handed is compacted in place, unless the kept records
// would fill less than half of it; otherwise they are copied into a new
// one, which nobody has been handed either.
func (s *Store) remove(sel selection) error {
	if sel.store != s || sel.gen != s.gen {
		return fmt.Errorf("engine: stale selection: the store was reorganised since the selection")
	}
	if len(sel.at) == 0 {
		return nil
	}
	n := len(s.recs) - len(sel.at)
	switch {
	case n == 0:
		s.recs = nil
		s.escaped.Store(false)
	case s.escaped.Load() || 2*n < cap(s.recs):
		// The slack append would leave: without it the next Add, which at
		// a site under ingest follows every remove, copies the whole site
		// once more.
		kept := make([]KV, n, n+n/4)
		compact(kept, s.recs, sel.at)
		s.recs = kept
		s.escaped.Store(false)
	default:
		compact(s.recs, s.recs, sel.at)
		clear(s.recs[n:])
		s.recs = s.recs[:n]
	}
	if s.idx != nil {
		// Once private, the cell column is compacted in place.
		s.ownIndex()
		s.idx.remove(sel.at)
	}
	s.version++
	s.gen++
	s.content = s.content.successor(0, sel.at)
	return nil
}

// reserve grows the record slice's capacity for n more records, with
// slices.Grow's amortised growth.
func (s *Store) reserve(n int) { s.recs = slices.Grow(s.recs, n) }
