package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Select is a map function the engine can read: emit each record whose key
// fields pass every conjunct under View.Key of its key. A key that does not
// have the View's width — the one the statement was compiled for — is
// foreign: dropped when there is a Where, else projected as View.Key leaves
// it (its full key, or GroupAll when the View keeps no field).
type Select struct {
	View  View
	Where []Cond
}

// Cond is one conjunct: Pass, a pure function, decides on the text of field
// Field, once per distinct value rather than per record.
type Cond struct {
	Field int
	Pass  func(field string) bool
}

func (sel *Select) validate(query string) error {
	width := sel.View.Width()
	if width < 1 {
		return fmt.Errorf("engine: query %q selects from keys of %d fields", query, width)
	}
	fields := sel.View.Keep()
	for _, c := range sel.Where {
		fields = append(fields, c.Field)
	}
	for _, f := range fields {
		if f < 0 || f >= width {
			return fmt.Errorf("engine: query %q reads field %d of keys of %d fields", query, f, width)
		}
	}
	return nil
}

// Names of round 0's key-id column lookups, one per site a Select scans: a
// miss built the column of a site written (or never read) since the last
// statement, interning the records the writes appended (every record, when
// nothing was carried).
const (
	CounterColumnsHits    = "engine.columns.hits"
	CounterColumnsMisses  = "engine.columns.misses"
	CounterColumnsEncoded = "engine.columns.encoded"
	HistColumnsBuild      = "engine.columns.build_s"
)

// keyDict interns the keys of one lineage — a store, its clones and what
// their Adds and removes make of them; Restore starts another, and so does
// every NewLayout. Each distinct key gets the next id when first met, and
// beside it its KeyHash; the first Select over a key splits it into field
// codes, in one field dictionary per position. It only grows: an id never
// changes meaning, so a content's ids carry across writes, and a prefix of
// the tables handed out stays valid unlocked.
type keyDict struct {
	mu sync.Mutex
	// hash is KeyHash, or what a test makes keys collide under.
	hash func(string) uint64
	// slot is the interning table, open-addressed by hash: id+1, 0 free. A
	// key whose hash matches an entry's is that key only when the texts
	// are equal, so ids are exact whatever the hashes are.
	slot []int32
	tab  keyEntries
	// coded holds the field codes of the first keys, ids below
	// len(coded.at)-1, and fields maps each position's texts to codes.
	coded  keyFields
	fields []map[string]uint32
}

// keyEntries are a lineage's keys with ids below len(keys), as some build
// left the dictionary.
type keyEntries struct {
	keys   []string // id → key
	hashes []uint64 // id → its hash (KeyHash)
}

// keyFields are the field codes of a lineage's first keys.
type keyFields struct {
	at     []int32 // id → its field codes are codes[at[id]:at[id+1]]
	codes  []uint32
	fields [][]string // fields[f][code] is the text a code at position f stands for
	widths []int      // the field counts the keys have, first met first
}

// key returns the field codes of key id; their count is its width.
func (c *keyFields) key(id int32) []uint32 { return c.codes[c.at[id]:c.at[id+1]] }

// foreign reports whether a key of another width than width is among the
// coded keys.
func (c *keyFields) foreign(width int) bool {
	return slices.ContainsFunc(c.widths, func(w int) bool { return w != width })
}

// intern writes the id of each record's key into ids, giving each key not
// met before the next one, and returns the dictionary as it then stands.
// When the tables are full it makes room for as many keys as the call's
// rate of new keys so far projects for its remaining records, so an intern
// over a content's records sizes them about once.
func (d *keyDict) intern(recs []KV, ids []int32) keyEntries {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hash == nil {
		d.hash = KeyHash
	}
	from := len(d.tab.keys)
	for i, r := range recs {
		if len(d.tab.keys) == cap(d.tab.keys) {
			d.reserve((len(d.tab.keys) - from) * (len(recs) - i) / max(i, 1))
		}
		ids[i] = d.id(r.Key)
	}
	return d.tab
}

// reserve makes room for about more keys — at least half again what the
// tables hold, at most four times it: the key and hash tables grow to hold
// them, and the interning table to hold them at most three-quarters full,
// re-slotting every id by its stored hash.
func (d *keyDict) reserve(more int) {
	n := len(d.tab.keys)
	size := n + min(max(more, n/2, 16), 4*max(n, 16))
	d.tab.keys = append(make([]string, 0, size), d.tab.keys...)
	d.tab.hashes = append(make([]uint64, 0, size), d.tab.hashes...)
	slots := 32
	for 3*slots < 4*size {
		slots *= 2
	}
	if slots <= len(d.slot) {
		return
	}
	d.slot = make([]int32, slots)
	mask := uint64(slots - 1)
	for id, h := range d.tab.hashes {
		j := h & mask
		for d.slot[j] != 0 {
			j = (j + 1) & mask
		}
		d.slot[j] = int32(id) + 1
	}
}

// id returns the id of key, interning it when it is new. Under mu.
func (d *keyDict) id(key string) int32 {
	if len(d.tab.keys) == cap(d.tab.keys) {
		d.reserve(0)
	}
	h := d.hash(key)
	mask := uint64(len(d.slot) - 1)
	j := h & mask
	for ; d.slot[j] != 0; j = (j + 1) & mask {
		if id := d.slot[j] - 1; d.tab.hashes[id] == h && d.tab.keys[id] == key {
			return id
		}
	}
	id := int32(len(d.tab.keys))
	d.slot[j] = id + 1
	d.tab.keys, d.tab.hashes = append(d.tab.keys, key), append(d.tab.hashes, h)
	return id
}

// code splits the first n keys into field codes, those not split yet, and
// returns the codes as they then stand.
func (d *keyDict) code(n int) keyFields {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := &d.coded
	if c.at == nil {
		c.at = []int32{0}
	}
	for id := len(c.at) - 1; id < n; id++ {
		width := 0
		for rest, more := d.tab.keys[id], true; more; width++ {
			field := rest
			if j := strings.IndexByte(rest, KeySep[0]); j >= 0 {
				field, rest = rest[:j], rest[j+1:]
			} else {
				more = false
			}
			if width == len(d.fields) {
				d.fields, c.fields = append(d.fields, map[string]uint32{}), append(c.fields, nil)
			}
			code, ok := d.fields[width][field]
			if !ok {
				code = uint32(len(c.fields[width]))
				d.fields[width][field], c.fields[width] = code, append(c.fields[width], field)
			}
			c.codes = append(c.codes, code)
		}
		c.at = append(c.at, int32(len(c.codes)))
		if !slices.Contains(c.widths, width) {
			c.widths = append(c.widths, width)
		}
	}
	out := *c
	out.fields = make([][]string, len(c.fields))
	for f, strs := range c.fields {
		out.fields[f] = slices.Clip(strs)
	}
	return out
}

// keyColumn is a content's key ids: derived state like a layout, a pure
// function of the records and their lineage's dictionary that dies with the
// content. An id means something only through dict; nothing a scan or a
// layout puts out depends on its value.
type keyColumn struct {
	ids     []int32 // ids[i] is the id of record i's key
	dict    keyEntries
	encoded int     // records the build interned; the rest it carried
	buildS  float64 // wall seconds the build took
	// lineage is the dictionary dict is a prefix of, which codes the keys'
	// fields once a Select asks (coded).
	lineage *keyDict
	once    sync.Once
	fields  keyFields
}

// coded returns the field codes of the column's keys.
func (kc *keyColumn) coded() *keyFields {
	kc.once.Do(func() { kc.fields = kc.lineage.code(len(kc.dict.keys)) })
	return &kc.fields
}

type keyIDsKey struct{} // the memo key of a content's key ids

// carried is the last key ids built in a lineage, and the removes since. An
// Add appends past the records they describe and a remove keeps order, so
// those that survive are a prefix of the content: the next build copies
// their ids, compacts them once per remove and interns the rest.
type carried struct {
	ids     []int32
	removes [][]int // each remove's ascending positions, oldest first
	moved   int     // records added plus removed since ids
	// tail is claimed by the one build that extends ids in their own array,
	// past their length; every copy of the carry (a clone's, a later
	// write's) shares it, so any other build copies.
	tail *atomic.Bool
}

// plan returns each remove's cut into what the carry describes — the
// positions that were still its records — how many of those are left, the
// content's first live records, and how long a column must be to hold n
// records and, on the way, the survivors of the first cut: the first remove
// copies them out, possibly more than n of them, and the later ones compact
// them in place. A nil carry describes nothing.
func (cr *carried) plan(n int) (cuts [][]int, live, stride int) {
	if cr == nil {
		return nil, 0, n
	}
	live = len(cr.ids)
	for _, at := range cr.removes {
		at = at[:sort.SearchInts(at, live)] // the rest took records appended since
		cuts = append(cuts, at)
		live -= len(at)
	}
	if len(cuts) > 0 {
		n = max(n, len(cr.ids)-len(cuts[0]))
	}
	return cuts, live, n
}

// restore returns a column for n records whose first live entries are the
// carry's ids of the records that survived the removes since. When the
// writes since only appended, the first build to claim the carry's tail
// extends its ids in their own array, as Store.Add extends records, if it
// has room; any other copies them, with a quarter's slack for the appends
// that follow. After a remove the copy is exact: a site that forwards
// copies at every rebuild anyway. A nil carry says nothing.
func (cr *carried) restore(n int) (ids []int32, live int) {
	cuts, live, stride := cr.plan(n)
	if cr == nil {
		return make([]int32, n), 0
	}
	appended := live == len(cr.ids)
	if appended && n <= cap(cr.ids) && cr.tail.CompareAndSwap(false, true) {
		return cr.ids[:n], live
	}
	if appended {
		stride = n + n/4
	}
	ids = make([]int32, stride)
	src := cr.ids
	if len(cuts) == 0 {
		copy(ids, src)
	}
	for _, at := range cuts {
		src = ids[:compact(ids, src, at)]
	}
	return ids[:n], live
}

// keyColumn returns the key ids of the content's records, built once — from
// the content's carry, interning only the records the writes since appended —
// and carried on to its successors; hit is false for the caller that built
// them.
func (ct *content) keyColumn(records []KV) (kc *keyColumn, hit bool) {
	kc, hit, _ = memo(ct, records, keyIDsKey{}, func(recs []KV) (*keyColumn, error) {
		t0 := time.Now()
		ct.mu.Lock()
		d, cr := ct.dict, ct.carry
		ct.carry = nil // what is built from it replaces it
		ct.mu.Unlock()

		ids, live := cr.restore(len(recs))
		kc := &keyColumn{ids: ids, dict: d.intern(recs[live:], ids[live:]), encoded: len(recs) - live, lineage: d}
		kc.buildS = time.Since(t0).Seconds()
		ct.mu.Lock()
		ct.carry = &carried{ids: ids, tail: new(atomic.Bool)}
		ct.mu.Unlock()
		return kc, nil
	})
	return kc, hit
}

// grouper addresses an executor's groups by the kept fields' codes of a key
// packed into one integer: a table indexed by it when the kept dictionaries'
// product is no larger than the busiest executor's share, an open-addressed
// one otherwise. A slot holds the ordinal (from 1, over the whole scan) of
// the group it was last given; ordinals at or below the executor's base are
// an earlier executor's and read as free, so nothing is cleared in between.
type grouper struct {
	keep   []int
	stride []uint64
	packs  bool // the product fits 64 bits; if not, groups go by name
	dense  []int32
	open   []openSlot
}

type openSlot struct {
	tuple uint64
	ord   int32
}

// newGrouper sizes the tables for share records, in bufs' buffers.
func newGrouper(d *keyFields, keep []int, share int, bufs *scanBufs) *grouper {
	g := &grouper{keep: keep, packs: true, stride: make([]uint64, len(keep))}
	product := uint64(1)
	for k, f := range keep {
		size := 1
		if f < len(d.fields) {
			size = max(len(d.fields[f]), 1)
		}
		g.stride[k] = product
		hi, lo := bits.Mul64(product, uint64(size))
		g.packs, product = g.packs && hi == 0, lo
	}
	switch {
	case !g.packs:
	case product <= uint64(share):
		g.dense = cleared(&bufs.dense, int(product))
	default:
		g.open = cleared(&bufs.open, 1<<bits.Len(uint(2*share)))
	}
	return g
}

// cleared returns the first n elements of *buf zeroed, growing it first
// when it is shorter.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// tuple packs the kept field codes of a key into one integer.
func (g *grouper) tuple(codes []uint32) uint64 {
	var t uint64
	for k, f := range g.keep {
		t += uint64(codes[f]) * g.stride[k]
	}
	return t
}

// slot returns where the ordinal of the group with tuple t lives: in the
// dense table, or in the open-addressed one the slot this executor gave it,
// else a free one claimed for it.
func (g *grouper) slot(t uint64, base int32) *int32 {
	if g.dense != nil {
		return &g.dense[t]
	}
	mask := uint64(len(g.open) - 1)
	for h := mix(t) & mask; ; h = (h + 1) & mask {
		if s := &g.open[h]; s.ord <= base || s.tuple == t {
			s.tuple = t
			return &s.ord
		}
	}
}

// scanBufs are a scan's per-key state — each key's tuple, or dropped, for
// the scan (valid where seen holds the scan's stamp), and the ordinal of
// the group it falls in for the executor (stamped with the executor's, so
// that a new executor starts with none) — its conjuncts' decisions and the
// grouper's tables, reused across scans.
type scanBufs struct {
	gen   uint32 // the last stamp handed out, to a scan or an executor
	seen  []uint32
	tup   []uint64
	ord   []uint64 // stamp<<32 | ordinal
	pass  []uint8
	dense []int32
	open  []openSlot
}

// stamp returns a stamp no key holds: a new one, or 1 once every key's
// stamps are cleared when the count wraps.
func (b *scanBufs) stamp() uint32 {
	if b.gen++; b.gen == 0 {
		clear(b.seen)
		clear(b.ord)
		b.gen = 1
	}
	return b.gen
}

// dropped is the tuple of a key the statement drops: no packed tuple is
// as large, since the packed ones stay below the product of the kept
// dictionaries' sizes.
const dropped = math.MaxUint64

var scanBufPool = sync.Pool{New: func() any { return new(scanBufs) }}

// scanSelect is Scan for a Select over the records' key ids. A key is
// decided once per executor that meets it — its conjuncts (each field value
// once per scan), whether it is foreign, and the group it falls in, opened
// by its first record — and then one pass over the records maps each to
// its key's id, the id to its group's ordinal and folds the value; a
// group's key is built when the group opens. Records fold in record order
// and groups come out in first-emit order per executor: the equivalent
// MapFn's result, bit for bit (DESIGN.md §8). The groups go in cb's buffer,
// which Inter then is.
func (l *Layout) scanSelect(recs []KV, kc *keyColumn, q *Query, cb *combiner) StageResult {
	sel, op, keys, d := q.Select, q.Combine, kc.dict.keys, kc.coded()
	width, keep, filtered := sel.View.Width(), sel.View.Keep(), len(sel.Where) > 0
	res := StageResult{AssignOverhead: l.AssignOverhead}
	share := 0
	for i := range l.execs {
		share = max(share, l.execs[i].records)
	}
	bufs := scanBufPool.Get().(*scanBufs)
	defer scanBufPool.Put(bufs)
	g := newGrouper(d, keep, share, bufs)
	// pass[k][code] is conjunct k's decision on a field value: 0 undecided,
	// 1 fails, 2 passes.
	pass, size := make([][]uint8, len(sel.Where)), 0
	for _, c := range sel.Where {
		if c.Field < len(d.fields) {
			size += len(d.fields[c.Field])
		}
	}
	flat := cleared(&bufs.pass, size)
	for k, c := range sel.Where {
		if c.Field < len(d.fields) {
			pass[k], flat = flat[:len(d.fields[c.Field])], flat[len(d.fields[c.Field]):]
		}
	}
	// Groups go by name when their tuples do not pack, and when foreign keys
	// are grouped: a foreign key's full text may spell what a kept
	// projection of another key spells, and the two are one group.
	var names map[string]int32
	if !g.packs || (len(keep) > 0 && !filtered && d.foreign(width)) {
		names = map[string]int32{}
	}
	// A group's ordinal is its place in inter, whose first element takes
	// the values of the records the statement drops: the fold has no branch.
	buf := cb.out[:0]
	inter := append(buf, KV{})
	// open appends the group record i opens under key and returns its
	// ordinal.
	open := func(i int, key string) int32 {
		inter = append(inter, KV{Key: key, Val: op.initial(recs[i].Val)})
		return int32(len(inter) - 1)
	}
	// name is View.Key of key id, whose field codes are codes, when it has
	// the View's width: when the kept fields are a run, the substring the
	// lengths of the fields before and in it locate.
	name := func(id int32, codes []uint32) string {
		if len(keep) == 0 || !sel.View.run {
			return sel.View.Key(keys[id])
		}
		start, size := 0, len(keep)-1
		for f := 0; f < keep[0]; f++ {
			start += len(d.fields[f][codes[f]]) + 1
		}
		for _, f := range keep {
			size += len(d.fields[f][codes[f]])
		}
		return keys[id][start : start+size]
	}
	// decide returns the tuple of key id, once per scan: dropped when the
	// statement drops it, 0 when groups go by name.
	decide := func(id int32) uint64 {
		codes := d.key(id)
		if len(codes) != width && filtered {
			return dropped
		}
		for k, c := range sel.Where {
			p := &pass[k][codes[c.Field]]
			if *p == 0 {
				*p = 1
				if c.Pass(d.fields[c.Field][codes[c.Field]]) {
					*p = 2
				}
			}
			if *p == 1 {
				return dropped
			}
		}
		if names != nil {
			return 0
		}
		return g.tuple(codes)
	}
	if len(bufs.ord) < len(keys) {
		bufs.seen, bufs.tup, bufs.ord, bufs.gen = make([]uint32, len(keys)), make([]uint64, len(keys)), make([]uint64, len(keys)), 0
	}
	seen, tup, ord, scan := bufs.seen, bufs.tup, bufs.ord, bufs.stamp()
	// group returns the ordinal of the group key id falls in, opening it
	// with record i when the executor, whose groups follow base, has none:
	// 0 for a key the statement drops; opened says that i opened it.
	group := func(id int32, i int, base int32) (ord int32, opened bool) {
		if seen[id] != scan {
			seen[id], tup[id] = scan, decide(id)
		}
		t := tup[id]
		switch {
		case t == dropped:
			return 0, false
		case names != nil:
			key := sel.View.Key(keys[id]) // a foreign key's too
			if ord := names[key]; ord != 0 {
				return ord, false
			}
			names[key] = open(i, key)
			return names[key], true
		}
		slot := g.slot(t, base)
		if *slot > base {
			return *slot, false
		}
		*slot = open(i, name(id, d.key(id)))
		return *slot, true
	}
	sumLike := op == OpSum || op == OpCount // the common folds skip a call
	kept := 0
	for e := range l.execs {
		ex := &l.execs[e]
		base := int32(len(inter) - 1)
		clear(names)
		gen := uint64(bufs.stamp()) << 32
		if e == 1 {
			// The other executors open about as many groups as the first.
			inter = slices.Grow(inter, len(inter)*(len(l.execs)-1))
		}
		for _, p := range ex.parts {
			for i := p.lo; i < p.hi; i++ {
				id := kc.ids[i]
				v := ord[id]
				if v&^(1<<32-1) != gen { // the executor's first record of the key
					o, opened := group(id, i, base)
					if v = gen | uint64(o); opened {
						ord[id] = v
						kept++
						continue
					}
					ord[id] = v
				}
				o := int32(uint32(v))
				kept += int(uint32(-o) >> 31) // 1 for a kept record, whose o > 0
				if sumLike {
					inter[o].Val += op.initial(recs[i].Val)
				} else {
					inter[o].Val = op.apply(inter[o].Val, recs[i].Val)
				}
			}
		}
		res.MapTime = max(res.MapTime, float64(ex.basis)*q.MapCost)
	}
	cb.out, res.Inter, res.Raw = inter, inter[1:], kept
	if len(res.Inter) == 0 {
		res.Inter = buf // as a scan that opens no group leaves it
	}
	return res
}
