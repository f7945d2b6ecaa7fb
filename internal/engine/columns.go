package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
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

// Names of round 0's column lookups, one per site a Select scans: a miss
// built the columns of a site written (or never read) since the last
// statement, encoding the records the writes appended (every record, when
// nothing was carried).
const (
	CounterColumnsHits    = "engine.columns.hits"
	CounterColumnsMisses  = "engine.columns.misses"
	CounterColumnsEncoded = "engine.columns.encoded"
	HistColumnsBuild      = "engine.columns.build_s"
)

// columns are a content's keys split into dictionary-coded fields — derived
// state like a layout: a pure function of records and width that dies with
// the content. A code means something only through dict; nothing a scan
// puts out depends on its value.
type columns struct {
	codes   [][]uint32 // codes[f][i] is field f of record i
	dict    [][]string // dict[f][code] is its text
	foreign []int32    // ascending: the records whose key has another width
	encoded int        // records the build encoded; the rest it carried
	buildS  float64    // wall seconds the build took
}

type columnsKey struct{ width int } // the memo key of a content's columns

// carried is the last columns of one width, or the last key hashes, built
// in a lineage, and the removes since. An Add appends past the records they
// describe and a remove keeps order, so those that survive are a prefix of
// the content: the next build copies their codes (hashes), compacts them
// once per remove and encodes (hashes) the rest.
type carried struct {
	key     any      // the memo key base or hashes were built under
	base    *columns // under a columnsKey
	hashes  []uint64 // under hashesKey
	held    int      // records base or hashes describe
	removes [][]int  // each remove's ascending positions, oldest first
	moved   int      // records added plus removed since base
}

// plan returns each remove's cut into what the carry describes — the
// positions that were still its base's records — how many of those are
// left, the content's first live records, and how long a column must be to
// hold n records and, on the way, the survivors of the first cut: the first
// remove copies them out, possibly more than n of them, and the later ones
// compact them in place. A nil carry describes nothing.
func (cr *carried) plan(n int) (cuts [][]int, live, stride int) {
	if cr == nil {
		return nil, 0, n
	}
	live = cr.held
	for _, at := range cr.removes {
		at = at[:sort.SearchInts(at, live)] // the rest took records appended since
		cuts = append(cuts, at)
		live -= len(at)
	}
	if len(cuts) > 0 {
		n = max(n, cr.held-len(cuts[0]))
	}
	return cuts, live, n
}

// carryInto fills col with the survivors of src, a column of the carry's
// base, through cuts.
func carryInto[T any](col, src []T, cuts [][]int) {
	if len(cuts) == 0 {
		copy(col, src)
	}
	for _, at := range cuts {
		src = col[:compact(col, src, at)]
	}
}

// restore allocates c's codes for n records and fills in what the carry
// says of the first live of them — their codes and which are foreign — the
// records of its base that survived the removes since. A nil carry says
// nothing.
func (cr *carried) restore(c *columns, n int) (live int) {
	cuts, live, stride := cr.plan(n)
	flat := make([]uint32, len(c.codes)*stride)
	for f := range c.codes {
		col := flat[f*stride : (f+1)*stride]
		if cr != nil {
			carryInto(col, cr.base.codes[f], cuts)
			clear(col[live:n]) // compaction's leftovers: a foreign record's codes stay zero
		}
		c.codes[f] = col[:n:n]
	}
	if cr == nil {
		return 0
	}
	c.foreign = slices.Clone(cr.base.foreign)
	for _, at := range cuts {
		kept, k := c.foreign[:0], 0
		for _, i := range c.foreign {
			for k < len(at) && at[k] < int(i) {
				k++
			}
			if k == len(at) || at[k] != int(i) {
				kept = append(kept, i-int32(k))
			}
		}
		c.foreign = kept
	}
	return live
}

type hashesKey struct{} // the memo key of a content's key hashes

// keyHashes returns KeyHash of each of the content's records, built once —
// from the content's carry of them, hashing only the records the writes
// since appended — and carried on to its successors.
func (ct *content) keyHashes(records []KV) []uint64 {
	hs, _, _ := memo(ct, records, hashesKey{}, func(recs []KV) ([]uint64, error) {
		ct.mu.Lock()
		cr := ct.takeCarry(hashesKey{})
		ct.mu.Unlock()
		cuts, live, stride := cr.plan(len(recs))
		hs := make([]uint64, stride)
		if cr != nil {
			carryInto(hs, cr.hashes, cuts)
		}
		hs = hs[:len(recs):len(recs)]
		for i := live; i < len(recs); i++ {
			hs[i] = KeyHash(recs[i].Key)
		}
		ct.mu.Lock()
		ct.carry = append(ct.carry, carried{key: hashesKey{}, hashes: hs, held: len(recs)})
		ct.mu.Unlock()
		return hs, nil
	})
	return hs
}

// dictionaries intern field texts, by field position, for one lineage (a
// store, its clones, what their Adds and removes make of them; Restore
// starts another). They only grow: a re-encode after a write interns the new
// values alone, and a prefix of strs handed out stays valid unlocked.
type dictionaries struct {
	mu     sync.Mutex
	fields []fieldDict
}

type fieldDict struct {
	ids  map[string]uint32
	strs []string
}

// columns returns the coded keys of the layout's records, built once per
// content — from the content's carry when it has one of this width — and
// carried on to its successors; hit is false for the caller that built
// them.
func (l *Layout) columns(width int) (cols *columns, hit bool) {
	cols, hit, _ = memo(l.ct, l.records, columnsKey{width}, func(recs []KV) (*columns, error) {
		t0, ct := time.Now(), l.ct
		ct.mu.Lock()
		if ct.dicts == nil {
			ct.dicts = &dictionaries{}
		}
		ds, cr := ct.dicts, ct.takeCarry(columnsKey{width})
		ct.mu.Unlock()

		c := &columns{codes: make([][]uint32, width), dict: make([][]string, width)}
		live := cr.restore(c, len(recs))
		ds.encode(c, recs, live)
		c.encoded, c.buildS = len(recs)-live, time.Since(t0).Seconds()
		ct.mu.Lock()
		ct.carry = append(ct.carry, carried{key: columnsKey{width}, base: c, held: len(recs)})
		ct.mu.Unlock()
		return c, nil
	})
	return cols, hit
}

// takeCarry removes the content's carry under this memo key and returns it
// (nil when there is none): what is built from it replaces it. Under ct.mu.
func (ct *content) takeCarry(key any) *carried {
	for i, c := range ct.carry {
		if c.key == key {
			ct.carry = slices.Delete(ct.carry, i, i+1)
			return &c
		}
	}
	return nil
}

// encode codes records from on into c, interning the field values the
// dictionaries lack, and hands c the dictionaries as they then stand.
func (ds *dictionaries) encode(c *columns, recs []KV, from int) {
	width := len(c.codes)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for len(ds.fields) < width {
		ds.fields = append(ds.fields, fieldDict{ids: map[string]uint32{}})
	}
	for i := from; i < len(recs); i++ {
		key := recs[i].Key
		if strings.Count(key, KeySep) != width-1 {
			c.foreign = append(c.foreign, int32(i))
			continue
		}
		for f := range c.codes {
			field := key // the last one
			if j := strings.IndexByte(key, KeySep[0]); j >= 0 {
				field, key = key[:j], key[j+1:]
			}
			d := &ds.fields[f]
			id, ok := d.ids[field]
			if !ok {
				id = uint32(len(d.strs))
				d.ids[field], d.strs = id, append(d.strs, field)
			}
			c.codes[f][i] = id
		}
	}
	for f := range c.dict {
		c.dict[f] = slices.Clip(ds.fields[f].strs)
	}
}

// grouper addresses a scan's groups by the kept fields' codes packed into
// one integer: a table indexed by it when the kept dictionaries' product is
// no larger than the busiest executor's share, an open-addressed one
// otherwise. A slot holds the ordinal (from 1, over the whole scan) of the
// group it was last given; ordinals at or below the executor's base are an
// earlier executor's and read as free, so nothing is cleared in between.
type grouper struct {
	cols   *columns
	keep   []int
	codes  [][]uint32 // the kept fields' columns
	stride []uint64
	packs  bool // the product fits 64 bits; if not, groups go by name
	run    bool // keep is an ascending contiguous run: a group key is a substring
	dense  []int32
	open   []openSlot
}

type openSlot struct {
	tuple uint64
	ord   int32
}

func newGrouper(cols *columns, keep []int, share int) *grouper {
	g := &grouper{cols: cols, keep: keep, packs: true, run: true,
		codes: make([][]uint32, len(keep)), stride: make([]uint64, len(keep))}
	product := uint64(1)
	for k, f := range keep {
		g.codes[k], g.stride[k] = cols.codes[f], product
		hi, lo := bits.Mul64(product, uint64(max(len(cols.dict[f]), 1)))
		g.packs, product = g.packs && hi == 0, lo
		g.run = g.run && (k == 0 || f == keep[k-1]+1)
	}
	switch {
	case !g.packs:
	case product <= uint64(share):
		g.dense = make([]int32, product)
	default:
		g.open = make([]openSlot, 1<<bits.Len(uint(2*share)))
	}
	return g
}

// slot returns where the ordinal of the group with tuple t lives in the
// open-addressed table: the slot this executor gave it, else a free one
// claimed for it.
func (g *grouper) slot(t uint64, base int32) *int32 {
	mask := uint64(len(g.open) - 1)
	for h := mix(t) & mask; ; h = (h + 1) & mask {
		if s := &g.open[h]; s.ord <= base || s.tuple == t {
			s.tuple = t
			return &s.ord
		}
	}
}

// key builds record i's group key: when keep is a run, the substring of the
// stored key that the lengths of the fields before and in it locate.
func (g *grouper) key(recs []KV, i int) string {
	if len(g.keep) == 0 {
		return GroupAll
	}
	text := func(f int) string { return g.cols.dict[f][g.cols.codes[f][i]] }
	if !g.run {
		kept := make([]string, len(g.keep))
		for k, f := range g.keep {
			kept[k] = text(f)
		}
		return strings.Join(kept, KeySep)
	}
	start, size := 0, len(g.keep)-1
	for f := 0; f < g.keep[0]; f++ {
		start += len(text(f)) + 1
	}
	for _, f := range g.keep {
		size += len(text(f))
	}
	return recs[i].Key[start : start+size]
}

// scanBufs are a partition's selection vector — the positions of the
// records that pass — and its records' group tuples, then ordinals, reused
// across scans.
type scanBufs struct {
	sel []int32
	tup []uint64
}

var scanBufPool = sync.Pool{New: func() any { return new(scanBufs) }}

// scanSelect is Scan for a Select: a conjunct is decided once per dictionary
// entry, and a partition costs three passes of integer work over its
// records — select the passing ones a conjunct at a time, pack their kept
// codes into tuples a column at a time, and find each one's group and fold
// its value — while a group's key is built when the group opens. Records
// fold in record order and groups come out in first-emit order per
// executor: the equivalent MapFn's result, bit for bit (DESIGN.md §14).
func (l *Layout) scanSelect(cols *columns, q *Query) StageResult {
	sel, recs, op := q.Select, l.records, q.Combine
	keep := sel.View.Keep()
	res := StageResult{AssignOverhead: l.AssignOverhead}
	type test struct {
		codes []uint32
		pass  []uint8
	}
	var tests []test // a conjunct every entry passes is not one
	for _, c := range sel.Where {
		pass := make([]uint8, len(cols.dict[c.Field]))
		for code, s := range cols.dict[c.Field] {
			if c.Pass(s) {
				pass[code] = 1
			}
		}
		if slices.Contains(pass, 0) {
			tests = append(tests, test{cols.codes[c.Field], pass})
		}
	}
	share := 0
	for i := range l.execs {
		share = max(share, l.execs[i].records)
	}
	g := newGrouper(cols, keep, share)
	// Groups go by name when their tuples do not pack, and when foreign keys
	// are grouped: a foreign key's full text may spell what a kept
	// projection of another key spells, and the two are one group.
	foreign, filtered := cols.foreign, len(sel.Where) > 0
	var names map[string]int32
	if !g.packs || (len(foreign) > 0 && len(keep) > 0 && !filtered) {
		names = map[string]int32{}
	}
	bufs := scanBufPool.Get().(*scanBufs)
	defer scanBufPool.Put(bufs)
	inter, groups := res.Inter, int32(0)
	open := func(i int32, key string) { // record i opens a group under key
		groups++
		inter = append(inter, KV{Key: key, Val: op.initial(recs[i].Val)})
	}
	for e := range l.execs {
		ex := &l.execs[e]
		base := groups
		clear(names)
		if e == 1 {
			// The other executors open about as many groups as the first.
			inter = slices.Grow(inter, len(inter)*(len(l.execs)-1))
		}
		for _, p := range ex.parts {
			if cap(bufs.sel) < p.hi-p.lo {
				bufs.sel, bufs.tup = make([]int32, p.hi-p.lo), make([]uint64, p.hi-p.lo)
			}
			fi := sort.Search(len(foreign), func(k int) bool { return int(foreign[k]) >= p.lo })
			// (1) Select: every record (but a foreign one under a WHERE),
			// then what each conjunct keeps of them.
			ids, n, rest := bufs.sel[:p.hi-p.lo], 0, tests
			drop := filtered && fi < len(foreign) && int(foreign[fi]) < p.hi
			if len(tests) > 0 && !drop { // the first conjunct selects from the range
				for i, t := p.lo, tests[0]; i < p.hi; i++ {
					ids[n] = int32(i)
					n += int(t.pass[t.codes[i]])
				}
				rest = tests[1:]
			} else {
				for i := p.lo; i < p.hi; i++ {
					if drop && fi < len(foreign) && int(foreign[fi]) == i {
						fi++
						continue
					}
					ids[n], n = int32(i), n+1
				}
			}
			ids = ids[:n]
			for _, t := range rest {
				n := 0
				for _, i := range ids {
					ids[n] = i
					n += int(t.pass[t.codes[i]])
				}
				ids = ids[:n]
			}
			res.Raw += len(ids)
			// (2) Pack each selected record's kept codes into its tuple and
			// (3a) turn the tuple into its group's ordinal, 0 for a record
			// that opened its group (and already folded into it).
			tup := bufs.tup[:len(ids)]
			if names != nil {
				for j, i := range ids {
					key := recs[i].Key
					if _, alien := slices.BinarySearch(foreign, i); !alien {
						key = g.key(recs, int(i))
					}
					ord := names[key]
					if ord == 0 {
						open(i, key)
						names[key] = groups
					}
					tup[j] = uint64(ord)
				}
			} else {
				clear(tup)
				for k, col := range g.codes {
					for j, i := range ids {
						tup[j] += uint64(col[i]) * g.stride[k]
					}
				}
				for j, t := range tup {
					var slot *int32
					if g.dense != nil {
						slot = &g.dense[t]
					} else {
						slot = g.slot(t, base)
					}
					if *slot > base {
						tup[j] = uint64(*slot)
					} else {
						open(ids[j], g.key(recs, int(ids[j])))
						*slot, tup[j] = groups, 0
					}
				}
			}
			// (3b) Fold the other records into their groups, in record order.
			if op == OpSum || op == OpCount { // the common folds skip a call
				for j, i := range ids {
					if ord := tup[j]; ord != 0 {
						inter[ord-1].Val += op.initial(recs[i].Val)
					}
				}
			} else {
				for j, i := range ids {
					if ord := tup[j]; ord != 0 {
						inter[ord-1].Val = op.apply(inter[ord-1].Val, recs[i].Val)
					}
				}
			}
		}
		res.MapTime = max(res.MapTime, float64(ex.basis)*q.MapCost)
	}
	res.Inter = inter
	return res
}
