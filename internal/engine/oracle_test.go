package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"bohr/internal/stats"
)

// derivedKind is one kind of value a store derives from its records and
// memoizes on their content: check holds a memoized value, and carried a
// carry of the kind (nil: never carried), to a build from scratch.
type derivedKind struct {
	name    string
	check   func(key, val any, f *fresh, ct *content) error
	carried func(cr *carried, f *fresh, ct *content) error
}

// derivedKinds registers every memo key type a content's memo or carry may
// hold. Beside them a store keeps its write-maintained cell column
// (Store.idx, checked as a cell column), and a cluster lineage the values
// Planned built (checked by the walk's probe, a pure function of the
// records).
var derivedKinds = map[reflect.Type]derivedKind{
	reflect.TypeFor[View]():      {"cell column", checkCellsMemo, nil},
	reflect.TypeFor[keyIDsKey](): {"key ids", checkKeyIDs, checkCarriedKeyIDs},
	reflect.TypeFor[layoutKey](): {"layout", checkLayout, nil},
}

// fresh builds one content's derived state from scratch, over a deep copy
// of its records; a content's records never change, so projections are kept.
type fresh struct {
	recs []KV
	proj map[View][]string
}

// projected returns each record's key in the view.
func (f *fresh) projected(v View) []string {
	if p, ok := f.proj[v]; ok {
		return p
	}
	p := make([]string, len(f.recs))
	for i, r := range f.recs {
		p[i] = v.Key(r.Key)
	}
	f.proj[v] = p
	return p
}

// cells returns the records' cells in the view, off a column built afresh.
func (f *fresh) cells(v View) []Cell {
	ix := newCellIndex(v, 0)
	for _, k := range f.projected(v) {
		ix.addCell(k)
	}
	return CellCounts{ix}.Top(0)
}

// checkEntries holds a lineage's dictionary as a build left it, e, and the
// field codes it handed out, c (nil: none yet), to their keys and to the
// lineage's: every id's hash is its key's under the dictionary's hash, the
// lineage maps it back to the id, its field codes spell it, and each table
// is a prefix of the lineage's.
func checkEntries(e *keyEntries, c *keyFields, d *keyDict) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case len(e.hashes) != len(e.keys) || len(e.keys) > len(d.tab.keys):
		return fmt.Errorf("%d keys, %d hashes; the lineage holds %d keys", len(e.keys), len(e.hashes), len(d.tab.keys))
	case !slices.Equal(e.keys, d.tab.keys[:len(e.keys)]) || !slices.Equal(e.hashes, d.tab.hashes[:len(e.keys)]):
		return fmt.Errorf("the entries are not a prefix of the lineage's")
	case c != nil && (len(c.at) != len(e.keys)+1 || len(c.at) > len(d.coded.at)):
		return fmt.Errorf("field codes of %d keys for %d; the lineage coded %d", len(c.at)-1, len(e.keys), len(d.coded.at)-1)
	}
	widths := map[int]bool{}
	for id, key := range e.keys {
		switch {
		case e.hashes[id] != d.hash(key):
			return fmt.Errorf("key %d (%q) has hash %x, want %x", id, key, e.hashes[id], d.hash(key))
		case d.id(key) != int32(id):
			return fmt.Errorf("the lineage gives %q the id %d, not %d", key, d.id(key), id)
		case c == nil:
			continue
		}
		codes := c.key(int32(id))
		fields := make([]string, len(codes))
		for f, code := range codes {
			fields[f] = c.fields[f][code]
		}
		widths[len(codes)] = true
		if strings.Join(fields, KeySep) != key {
			return fmt.Errorf("key %d's field codes spell %q, not %q", id, strings.Join(fields, KeySep), key)
		}
	}
	if c != nil {
		for _, w := range c.widths {
			delete(widths, w)
		}
		if len(widths) > 0 {
			return fmt.Errorf("widths %v of its keys are not among %v", widths, c.widths)
		}
	}
	return nil
}

// sameKeys holds the first n of ids, read through the entries, to the
// records' keys.
func sameKeys(ids []int32, e *keyEntries, recs []KV, n int) error {
	for i, r := range recs[:n] {
		if id := ids[i]; int(id) >= len(e.keys) || e.keys[id] != r.Key {
			return fmt.Errorf("record %d has id %d, which is not its key %q", i, id, r.Key)
		}
	}
	return nil
}

// checkCells holds a cell column to the records' keys in its view, proj.
func checkCells(v View, ix *cellIndex, proj []string) error {
	switch {
	case ix.view != v || ix.more != nil:
		return fmt.Errorf("a column in %v kept for %v, or a dry run's", ix.view, v)
	case len(ix.ids) != len(ix.keys) || len(ix.count) != len(ix.keys) || len(ix.cell) != len(proj):
		return fmt.Errorf("%d ids, %d keys, %d counts and %d cell ids for %d records", len(ix.ids), len(ix.keys), len(ix.count), len(ix.cell), len(proj))
	}
	for id, k := range ix.keys {
		if ix.ids[k] != int32(id) {
			return fmt.Errorf("cell %q has id %d, is at %d", k, ix.ids[k], id)
		}
	}
	count := make([]int, len(ix.keys))
	for i, id := range ix.cell {
		if ix.keys[id] != proj[i] {
			return fmt.Errorf("record %d is in cell %q, not %q", i, ix.keys[id], proj[i])
		}
		count[id]++
	}
	if !slices.Equal(count, ix.count) {
		return fmt.Errorf("cell counts %v, want %v", ix.count, count)
	}
	return nil
}

func checkCellsMemo(key, val any, f *fresh, _ *content) error {
	return checkCells(key.(View), val.(*cellIndex), f.projected(key.(View)))
}

// checkKeyIDs holds a content's key ids to its records' keys, through a
// dictionary that is a prefix of the lineage's and holds to its keys.
func checkKeyIDs(_, val any, f *fresh, ct *content) error {
	kc := val.(*keyColumn)
	if len(kc.ids) != len(f.recs) || ct.dict == nil {
		return fmt.Errorf("%d ids for %d records, dictionary %p", len(kc.ids), len(f.recs), ct.dict)
	}
	var fields *keyFields
	if kc.lineage != ct.dict {
		return fmt.Errorf("built in another lineage's dictionary")
	}
	if kc.fields.at != nil { // the codes a Select was handed (the walk is sequential)
		fields = &kc.fields
	}
	if err := checkEntries(&kc.dict, fields, ct.dict); err != nil {
		return err
	}
	return sameKeys(kc.ids, &kc.dict, f.recs, len(f.recs))
}

func checkLayout(key, val any, f *fresh, ct *content) error {
	l := val.(*Layout)
	want, err := newLayout(f.recs, newContent(), Stage(key.(layoutKey)))
	switch {
	case err != nil:
		return err
	case l.ct != ct || l.records != nil || l.src != nil:
		return fmt.Errorf("lays out another content, or keeps records or a store")
	case l.AssignOverhead != want.AssignOverhead || !reflect.DeepEqual(l.execs, want.execs):
		return fmt.Errorf("executors differ from a fresh layout's")
	}
	return nil
}

// carriedPrefix returns how a carry describes the first live of n records.
func carriedPrefix(cr *carried, n int) (cuts [][]int, live, stride int, err error) {
	cuts, live, stride = cr.plan(n)
	if cr.moved > len(cr.ids) || live < 0 || live > n {
		err = fmt.Errorf("%d survivors of %d records, after %d moved of the %d it describes", live, n, cr.moved, len(cr.ids))
	}
	return cuts, live, stride, err
}

// checkCarriedKeyIDs holds what a carry says of the records that survive
// it — its ids with each remove's cut taken out, one at a time, without
// claiming its tail — to their keys.
func checkCarriedKeyIDs(cr *carried, f *fresh, ct *content) error {
	cuts, live, _, err := carriedPrefix(cr, len(f.recs))
	if err != nil {
		return err
	}
	ids := slices.Clone(cr.ids)
	for _, at := range cuts {
		for k := len(at) - 1; k >= 0; k-- {
			ids = slices.Delete(ids, at[k], at[k]+1)
		}
	}
	if len(ids) != live {
		return fmt.Errorf("%d ids survive the cuts, the plan says %d", len(ids), live)
	}
	ct.dict.mu.Lock()
	e := ct.dict.tab
	ct.dict.mu.Unlock()
	return sameKeys(ids, &e, f.recs, live)
}

// walkData are the walk's datasets: keys of width fields (a twentieth of
// them of another width), and two views a mover moves in.
var walkData = []struct {
	name  string
	width int
	views []View
}{
	{"a", 3, []View{NewView(3, 0), {}}},
	{"b", 2, []View{NewView(2, 1), NewView(2, 1, 0)}},
}

type storeState struct {
	recs    []KV
	version uint64
	content *content
}

// heldSlice is a slice some route took out of a store, with the deep copy
// taken then; leased says the route was Lease, which only pins it until
// the lease's release (then the slice is no longer held).
type heldSlice struct {
	route     string
	recs, was []KV
	leased    bool
}

// heldLayout is a store's layout kept past the step that looked it up:
// while its store holds ct it must scan as fresh, built over a copy of
// the records then, does; once the store is written it must fail by name.
type heldLayout struct {
	l, fresh *Layout
	ct       *content
	width    int
}

// walk is the state of one seeded run of TestDerivedStateWalk.
type walk struct {
	t        *testing.T
	rng      *rand.Rand
	step     int
	op, kind string // the step, and the kind a check is checking
	clusters []*Cluster
	focus    [3]int // cluster, site and dataset half the steps act on
	serial   int
	prev     map[*Store]storeState // each store as the last check left it
	writes   map[*Store]uint64     // the writes of the current step
	seen     map[*content]*fresh
	held     []heldSlice
	layouts  []heldLayout
	release  []func() // the last snapshot's leases
}

// TestDerivedStateWalk is the oracle for a store's derived state (DESIGN.md
// §6): a seeded walk drives a cluster and up to three clones through the
// mutating and reading API and, after every step, holds every memo, carry
// and store-owned cell column to its fresh build (derivedKinds) and to
// referencing no store's record array, every handed-out or leased slice
// and shared array to the escape rule, every kept layout to scanning as a
// fresh one until its store is written and failing by name after, and
// each store's records, Len, Version and content to what the step wrote. A
// failure names the seed (the subtest), the step and the kind.
func TestDerivedStateWalk(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := &walk{t: t, rng: stats.NewRand(seed), seen: map[*content]*fresh{}}
			w.run(250)
		})
	}
}

func (w *walk) fail(kind string, format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("step %d (%s): %s: %s", w.step, w.op, kind, fmt.Sprintf(format, args...))
}

func (w *walk) run(steps int) {
	c := testClusterQ(3, 2)
	w.clusters, w.writes, w.op = []*Cluster{c}, map[*Store]uint64{}, "set-up"
	for i := range c.N() {
		for _, d := range walkData {
			c.Data[i].Add(d.name, w.batch(d.width, 40+w.rng.Intn(60))...)
			w.writes[c.Data[i].Store(d.name)]++
		}
	}
	w.check()
	for w.step = 1; w.step <= steps; w.step++ {
		if w.step%40 == 1 {
			w.focus = [3]int{w.rng.Intn(len(w.clusters)), w.rng.Intn(c.N()), w.rng.Intn(len(walkData))}
		}
		w.writes, w.kind = map[*Store]uint64{}, "act"
		func() {
			defer func() {
				if r := recover(); r != nil {
					w.fail(w.kind, "panic: %v\n%s", r, debug.Stack())
				}
			}()
			w.act()
			w.check()
		}()
	}
}

// batch returns n new records of width-field keys: known values, a new one
// now and then, and a twentieth of another width.
func (w *walk) batch(width, n int) []KV {
	out := make([]KV, n)
	for i := range out {
		key := make([]string, width)
		if w.rng.Intn(20) == 0 {
			key = make([]string, 5-width)
		}
		for f := range key {
			key[f] = fmt.Sprintf("%c%d", "kch"[f], w.rng.Intn([]int{9, 5, 4}[f]))
		}
		if len(key) > 1 && w.rng.Intn(20) == 0 {
			key[1] = fmt.Sprintf("new%d", w.serial)
		}
		w.serial++
		out[i] = KV{Key: strings.Join(key, KeySep), Val: float64(w.serial)}
	}
	return out
}

// act takes one step, on the focus half of the time.
func (w *walk) act() {
	c, site, di := w.clusters[w.rng.Intn(len(w.clusters))], w.rng.Intn(3), w.rng.Intn(len(walkData))
	if w.rng.Intn(2) == 0 {
		c, site, di = w.clusters[min(w.focus[0], len(w.clusters)-1)], w.focus[1], w.focus[2]
	}
	d := walkData[di]
	st := c.Data[site].Store(d.name)
	// written notes the step's one write to the store, which holds want.
	written := func(want []KV) {
		if st = c.Data[site].Store(d.name); !slices.Equal(st.recs, want) {
			w.fail("records", "%d records, want %d", len(st.recs), len(want))
		}
		w.writes[st]++
	}
	switch op := w.rng.Intn(21); {
	case op < 5:
		w.op = "Add"
		recs := w.batch(d.width, 1+w.rng.Intn(12))
		c.Data[site].Add(d.name, recs...)
		written(append(slices.Clone(w.prev[st].recs), recs...))
	case op < 9:
		w.move(c, site, di)
	case op < 11:
		// Up to three clones at a time, a new one replacing the oldest; it
		// and its source then write beside each other.
		w.op = "Cluster.Clone"
		cl := c.Clone()
		for i, sd := range c.Data {
			for name, st := range sd.stores {
				w.prev[cl.Data[i].Store(name)] = w.prev[st]
			}
		}
		if w.clusters = append(w.clusters, cl); len(w.clusters) > 4 {
			w.clusters = slices.Delete(w.clusters, 1, 2)
		}
		w.move(c, site, di)
		w.move(cl, site, di)
		w.op = "Cluster.Clone, then ApplyMoves on both"
	case op < 14:
		w.scan(st, d.width)
	case op < 16:
		// A store adopts what it restores: a fresh slice, the one it just
		// handed out (a reload of a capture), or a prefix of one another
		// live store holds, which the store then appends to.
		recs, route := w.batch(d.width, 20+w.rng.Intn(40)), "Restore (fresh)"
		shared := false
		switch w.rng.Intn(3) {
		case 0:
			if st.Len() > 0 {
				recs, route = st.Records(), "Restore (handed out)"
			}
		case 1:
			if o := w.clusters[w.rng.Intn(len(w.clusters))].Data[w.rng.Intn(3)].Store(d.name); o != st && o.Len() > 1 {
				held := o.Records()
				route, shared = "Restore (another store's), then Add", true
				w.held = append(w.held, heldSlice{route, held, slices.Clone(held), false})
				recs = held[:1+w.rng.Intn(len(held)-1)]
			}
		}
		w.op = route
		w.held = append(w.held, heldSlice{route, recs, slices.Clone(recs), false})
		c.Data[site].Restore(d.name, recs)
		written(recs)
		if shared {
			added := w.batch(d.width, 1+w.rng.Intn(4))
			c.Data[site].Add(d.name, added...)
			written(append(slices.Clone(recs), added...))
		}
	case op == 16:
		v, m := w.mover(di)
		w.op = fmt.Sprintf("Profile.Counts in %v under %T%+v", v, m, m)
		p := NewProfile(c, d.name, v.Map(), v)
		if _, err := p.Counts(w.specs(c, site, di), m, rand.New(rand.NewSource(w.rng.Int63()))); err != nil {
			w.fail("dry run", "%v", err)
		}
	case op < 19:
		w.probe(c, d.name, d.views[w.rng.Intn(2)])
	default:
		// A checkpoint leases every store until the next snapshot ends the
		// lease; a snapshot by Records hands them out for good.
		leased := w.rng.Intn(2) == 0
		w.op = map[bool]string{false: "snapshot (Records)", true: "snapshot (Lease)"}[leased]
		for _, release := range w.release {
			release()
		}
		w.release = nil
		w.held = slices.DeleteFunc(w.held, func(h heldSlice) bool { return h.leased })
		for _, sd := range c.Data {
			for _, st := range sd.stores {
				recs := st.Records
				if leased {
					recs = func() []KV {
						held, release := st.Lease()
						w.release = append(w.release, release)
						return held
					}
				}
				held := recs()
				w.held = append(w.held, heldSlice{w.op, held, slices.Clone(held), leased})
			}
		}
	}
}

// specs returns moves of the dataset out of src toward one or two other
// sites: mostly a few records, now and then the whole site.
func (w *walk) specs(c *Cluster, src, di int) []MoveSpec {
	n := c.Data[src].Store(walkData[di].name).Len()
	var specs []MoveSpec
	for k := 1 + w.rng.Intn(2); k > 0; k-- {
		ask := 1 + w.rng.Intn(n/6+1)
		if w.rng.Intn(8) == 0 {
			ask = n + 5
		}
		dst := (src + 1 + w.rng.Intn(c.N()-1)) % c.N()
		specs = append(specs, MoveSpec{Dataset: walkData[di].name, Src: src, Dst: dst, MB: c.MB(ask) * 1.000001})
	}
	return specs
}

// mover returns one of the dataset's views and a mover in it, a fifth of
// the time RandomMover; with and without DstTopK.
func (w *walk) mover(di int) (View, Mover) {
	v, k := walkData[di].views[w.rng.Intn(2)], w.rng.Intn(5)
	if k == 0 {
		return v, RandomMover{}
	}
	return v, SimilarMover{View: v, DstTopK: []int{0, 3}[k/3]}
}

// move runs ApplyMoves out of one site: each executed step is a write at
// both ends, and the dataset keeps its records.
func (w *walk) move(c *Cluster, src, di int) {
	_, m := w.mover(di)
	w.op = fmt.Sprintf("ApplyMoves under %T%+v", m, m)
	name, count := walkData[di].name, map[KV]int{}
	for _, sd := range c.Data {
		for _, r := range w.prev[sd.Store(name)].recs {
			count[r]++
		}
	}
	res, err := c.ApplyMoves(w.specs(c, src, di), m, rand.New(rand.NewSource(w.rng.Int63())))
	if err != nil {
		w.fail("move", "%v", err)
	}
	for _, tr := range res.Transfers {
		w.writes[c.Data[tr.Src].Store(name)]++
		w.writes[c.Data[tr.Dst].Store(name)]++
	}
	for _, sd := range c.Data {
		for _, r := range w.freshOf(sd.Store(name)).recs {
			count[r]--
		}
	}
	for r, n := range count {
		if n != 0 {
			w.fail("records", "the dataset holds %d fewer of %v after the move", n, r)
		}
	}
}

// scan lays the store out, keeps the layout and scans it (scanLayout).
func (w *walk) scan(st *Store, width int) {
	stage := []Stage{{Exec: Executors{Machines: 2, PerMachine: 2}}, {Exec: Executors{Machines: 1, PerMachine: 3}, CubeInput: true}}[w.rng.Intn(2)]
	w.op = fmt.Sprintf("Layout%+v and Scan", stage)
	l, _, err := st.Layout(stage)
	if err != nil {
		w.fail("layout", "%v", err)
	}
	fresh, _ := NewLayout(slices.Clone(st.recs), stage)
	w.layouts = append(w.layouts, heldLayout{l, fresh, st.content, width})
	w.scanLayout(l, fresh, width)
}

// scanLayout scans the layout under a MapFn and under a Select, which
// builds the key ids: both must read what fresh reads.
func (w *walk) scanLayout(l, fresh *Layout, width int) {
	v := NewView(width, w.rng.Intn(width))
	for _, q := range []Query{{Map: v.Map()}, {Select: &Select{View: v, Where: []Cond{{Field: 1, Pass: func(s string) bool { return s < "c3" }}}}}} {
		if got, want := l.Scan(&q), fresh.Scan(&q); !reflect.DeepEqual(got, want) {
			w.fail("layout", "a scan (Select %v) reads %d groups of %d records, a fresh layout's %d of %d", q.Select != nil, len(got.Inter), got.Raw, len(want.Inter), want.Raw)
		}
	}
}

// checkLayouts scans every kept layout whose store holds the content it
// was laid out for, and holds one whose store was written since to
// failing by name; the walk then forgets it.
func (w *walk) checkLayouts() {
	w.kind = "kept layout"
	w.layouts = slices.DeleteFunc(w.layouts, func(h heldLayout) bool {
		if h.l.src.content == h.ct {
			w.scanLayout(h.l, h.fresh, h.width)
			return false
		}
		if err := scanErr(h.l); err == nil || !strings.Contains(err.Error(), "stale layout") {
			w.fail(w.kind, "a scan after its store's write returned %v, want a stale layout", err)
		}
		return true
	})
}

// probe asks the cluster's lineage twice for every site's cell counts in
// the view, a pure function of the records: the second lookup must hit, and
// both must read the records' cells.
func (w *walk) probe(c *Cluster, dataset string, v View) {
	w.op = fmt.Sprintf("Planned probe in %v", v)
	build := func() ([][]Cell, error) {
		out := make([][]Cell, c.N())
		for i, sd := range c.Data {
			cc, _ := sd.Store(dataset).Cells(v)
			out[i] = cc.Top(0)
		}
		return out, nil
	}
	for k := range 2 {
		got, hit, err := Planned(c, dataset, v, build)
		if err != nil || k == 1 && !hit {
			w.fail("Planned", "lookup %d: hit %v, %v", k+1, hit, err)
		}
		for i, sd := range c.Data {
			if want := w.freshOf(sd.Store(dataset)).cells(v); !slices.Equal(got[i], want) {
				w.fail("Planned", "site %d's probe reads %v, the records' %v", i, got[i], want)
			}
		}
	}
}

// freshOf returns the builds from scratch of the store's content.
func (w *walk) freshOf(st *Store) *fresh {
	if st != nil && w.seen[st.content] != nil {
		return w.seen[st.content]
	}
	f := &fresh{proj: map[View][]string{}}
	if st != nil && st.content != nil {
		f.recs, w.seen[st.content] = slices.Clone(st.recs), f
	}
	return f
}

// check holds every store of every cluster to the oracle.
func (w *walk) check() {
	where := map[*Store]string{}
	var stores []*Store
	for ci, c := range w.clusters {
		for _, d := range walkData {
			var sum uint64
			some := false
			for i, sd := range c.Data {
				if st := sd.Store(d.name); st != nil {
					where[st] = fmt.Sprintf("cluster %d site %d dataset %s", ci, i, d.name)
					stores = append(stores, st)
				}
				sum += sd.Store(d.name).Version()
				some = some || sd.Store(d.name).Len() > 0
			}
			if v, ok := c.Version(d.name); v != sum || ok != some {
				w.fail("Cluster.Version", "cluster %d dataset %s: %d, %v; the stores sum to %d, %v", ci, d.name, v, ok, sum, some)
			}
		}
	}
	// Handed-out slices first: a write through an array two holders share
	// is named by the route that handed it out, not as a changed store.
	w.checkHeld(stores, where)
	w.checkLayouts()
	arrays := recordArrays(stores)
	done := map[*content]bool{}
	next := map[*Store]storeState{}
	for _, st := range stores {
		f := w.freshOf(st)
		w.checkStore(where[st], st, f)
		next[st] = storeState{f.recs, st.version, st.content}
		if st.content != nil && !done[st.content] {
			done[st.content] = true
			w.checkContent(where[st], st.content, f, arrays)
		}
		if st.idx != nil {
			if err := checkCells(st.idx.view, st.idx, f.projected(st.idx.view)); err != nil {
				w.fail("cell column", "%s: the store's own: %v", where[st], err)
			}
		}
	}
	w.prev = next
}

// checkStore holds the store to the step: one the step did not write keeps
// its records, version and content; one it wrote has a new content and a
// version risen by its writes. Stores of one content hold its records.
func (w *walk) checkStore(where string, st *Store, f *fresh) {
	was, writes := w.prev[st], w.writes[st]
	switch {
	case st.Len() != len(st.recs):
		w.fail("Len", "%s: %d, %d records", where, st.Len(), len(st.recs))
	case st.version != was.version+writes:
		w.fail("Version", "%s: %d after %d writes, was %d", where, st.version, writes, was.version)
	case writes == 0 && (st.content != was.content || !slices.Equal(st.recs, w.prev[st].recs)):
		w.fail("content", "%s: changed by a step that did not write it", where)
	case writes > 0 && st.content == was.content:
		w.fail("content", "%s: kept across a write", where)
	case !slices.Equal(f.recs, st.recs):
		w.fail("content", "%s: holds other records than its content's", where)
	}
}

// checkContent holds every memo and carry of ct to its kind's fresh build,
// and every memoized value to referencing none of the stores' arrays.
func (w *walk) checkContent(where string, ct *content, f *fresh, arrays []span) {
	ct.mu.Lock()
	memo, carry := maps.Clone(ct.memo), ct.carry
	ct.mu.Unlock()
	check := func(key any, prefix string, run func(derivedKind) error) {
		k, ok := derivedKinds[reflect.TypeOf(key)]
		if !ok {
			w.fail("registry", "%s: memo key type %T is not in derivedKinds", where, key)
		}
		w.kind = prefix + k.name
		if err := run(k); err != nil {
			w.fail(w.kind, "%s: %v", where, err)
		}
	}
	for key, d := range memo {
		check(key, "", func(k derivedKind) error { return k.check(key, d.val, f, ct) })
		check(key, "records kept by ", func(derivedKind) error {
			return pointsInto(reflect.ValueOf(d.val), arrays, map[uintptr]bool{})
		})
	}
	if carry != nil {
		check(keyIDsKey{}, "carried ", func(k derivedKind) error { return k.carried(carry, f, ct) })
	}
}

// checkHeld holds every slice handed out or leased to what it read then,
// and every store whose record array a handed-out slice or another store
// shares to the escape rule — its escape bit is set — and one whose array a
// leased slice shares to it or to a lease being out: either way no remove
// compacts the array in place. A slice whose array no store holds any more
// is forgotten: nothing can write it.
func (w *walk) checkHeld(stores []*Store, where map[*Store]string) {
	holders := map[*KV][]heldSlice{}
	for _, st := range stores {
		if len(st.recs) > 0 {
			p := unsafe.SliceData(st.recs)
			holders[p] = append(holders[p], heldSlice{route: "the store at " + where[st]})
		}
	}
	kept := w.held[:0]
	for _, h := range w.held {
		if !slices.Equal(h.recs, h.was) {
			w.fail("handed-out slice", "a slice %s handed out changed", h.route)
		}
		if p := unsafe.SliceData(h.recs); len(h.recs) > 0 && holders[p] != nil {
			holders[p] = append(holders[p], h)
			kept = append(kept, h)
		}
	}
	w.held = kept
	for _, st := range stores {
		hs := holders[unsafe.SliceData(st.recs)]
		if len(st.recs) == 0 || len(hs) < 2 || st.escaped.Load() {
			continue
		}
		for _, h := range hs[1:] {
			if !h.leased || st.leases.Load() == 0 {
				w.fail("escape bit", "%s: unset, and no lease out, on records %s holds", where[st], h.route)
			}
		}
	}
}

// recordArrays returns the extent of every store's record array, as
// address ranges.
func recordArrays(stores []*Store) []span {
	var out []span
	for _, st := range stores {
		if cap(st.recs) > 0 {
			lo := int(uintptr(unsafe.Pointer(unsafe.SliceData(st.recs))))
			out = append(out, span{lo, lo + cap(st.recs)*int(unsafe.Sizeof(KV{}))})
		}
	}
	return out
}

// pointsInto walks everything v reaches — pointers, slices, maps,
// interfaces and struct fields, exported or not — and returns an error
// naming the first pointer or slice whose address falls inside one of
// arrays. Strings are not followed: their bytes are never a record array.
func pointsInto(v reflect.Value, arrays []span, seen map[uintptr]bool) error {
	inside := func(p uintptr) bool {
		for _, a := range arrays {
			if int(p) >= a.lo && int(p) < a.hi {
				return true
			}
		}
		return false
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Slice:
		if v.IsNil() {
			return nil
		}
		p := v.Pointer()
		if inside(p) {
			return fmt.Errorf("a %s points into a store's record array", v.Type())
		}
		if seen[p] && v.Kind() == reflect.Pointer {
			return nil
		}
		seen[p] = true
		if v.Kind() == reflect.Pointer {
			return pointsInto(v.Elem(), arrays, seen)
		}
		if v.Type().Elem().Kind() == reflect.String || !hasPointers(v.Type().Elem()) {
			return nil
		}
		for i := range v.Len() {
			if err := pointsInto(v.Index(i), arrays, seen); err != nil {
				return err
			}
		}
	case reflect.Interface:
		return pointsInto(v.Elem(), arrays, seen)
	case reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		for it := v.MapRange(); it.Next(); {
			if err := pointsInto(it.Key(), arrays, seen); err != nil {
				return err
			}
			if err := pointsInto(it.Value(), arrays, seen); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if err := pointsInto(v.Field(i), arrays, seen); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			if err := pointsInto(v.Index(i), arrays, seen); err != nil {
				return err
			}
		}
	}
	return nil
}

// hasPointers reports whether a value of type t can hold a pointer the
// walk follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		return true
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return hasPointers(t.Elem())
	}
	return false
}

// TestOnlyStoreTouchesRecords is the record-slice rule as a source check:
// no non-test file of the package but store.go selects a store's recs, so
// every route by which the slice leaves the store is one store.go marks or
// leases, or one whose reader keeps nothing past the store's next write.
func TestOnlyStoreTouchesRecords(t *testing.T) {
	fset := token.NewFileSet()
	others := func(fi fs.FileInfo) bool { return fi.Name() != "store.go" && !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", others, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["engine"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "recs" {
				t.Errorf("%s selects .recs: only store.go touches a store's record slice", fset.Position(sel.Pos()))
			}
			return true
		})
	}
}
