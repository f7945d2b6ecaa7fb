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
	"sort"
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
	reflect.TypeFor[View]():       {"cell column", checkCellsMemo, nil},
	reflect.TypeFor[columnsKey](): {"key columns", checkColumns, checkCarriedColumns},
	reflect.TypeFor[hashesKey]():  {"key hashes", checkHashes, checkCarriedHashes},
	reflect.TypeFor[layoutKey]():  {"layout", checkLayout, nil},
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

func (f *fresh) keyHashes() []uint64 {
	hs := make([]uint64, len(f.recs))
	for i, r := range f.recs {
		hs[i] = KeyHash(r.Key)
	}
	return hs
}

// columns encodes the keys of width fields with no carry, through a copy of
// the lineage's dictionaries.
func (f *fresh) columns(ds *dictionaries, width int) *columns {
	cp := &dictionaries{}
	if ds != nil {
		ds.mu.Lock()
		for _, d := range ds.fields {
			cp.fields = append(cp.fields, fieldDict{maps.Clone(d.ids), slices.Clone(d.strs)})
		}
		ds.mu.Unlock()
	}
	c := &columns{codes: make([][]uint32, width), dict: make([][]string, width)}
	(*carried)(nil).restore(c, len(f.recs))
	cp.encode(c, f.recs, 0)
	return c
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

// checkColumns holds key columns to a fresh encode through the lineage's
// dictionaries, bit for bit.
func checkColumns(key, val any, f *fresh, ct *content) error {
	return sameColumns(val.(*columns), f.columns(ct.dicts, key.(columnsKey).width), len(f.recs))
}

// sameColumns compares the codes and foreign keys of the first n records,
// and the dictionaries the columns hold, if any.
func sameColumns(c, want *columns, n int) error {
	foreign := want.foreign[:sort.Search(len(want.foreign), func(k int) bool { return int(want.foreign[k]) >= n })]
	if len(c.codes) != len(want.codes) || !slices.Equal(c.foreign, foreign) {
		return fmt.Errorf("%d fields, foreign records %v; want %d, %v", len(c.codes), c.foreign, len(want.codes), foreign)
	}
	for i := range want.codes {
		if !slices.Equal(c.codes[i][:n], want.codes[i][:n]) {
			return fmt.Errorf("field %d's codes of %d records differ from a fresh encode's", i, n)
		}
	}
	for i, d := range c.dict { // a prefix of the lineage's, which only grows
		if len(d) > len(want.dict[i]) || !slices.Equal(d, want.dict[i][:len(d)]) {
			return fmt.Errorf("field %d's dictionary is not a prefix of the lineage's", i)
		}
	}
	return nil
}

func checkHashes(_, val any, f *fresh, _ *content) error {
	if !slices.Equal(val.([]uint64), f.keyHashes()) {
		return fmt.Errorf("the hashes of %d records differ from their keys'", len(f.recs))
	}
	return nil
}

func checkLayout(key, val any, f *fresh, ct *content) error {
	l := val.(*Layout)
	want, err := newLayout(f.recs, &content{}, Stage(key.(layoutKey)))
	switch {
	case err != nil:
		return err
	case l.ct != ct || !slices.Equal(l.records, f.recs):
		return fmt.Errorf("lays out another content's records")
	case l.AssignOverhead != want.AssignOverhead || !reflect.DeepEqual(l.execs, want.execs):
		return fmt.Errorf("executors differ from a fresh layout's")
	}
	return nil
}

// carriedPrefix returns how a carry describes the first live of n records.
func carriedPrefix(cr *carried, n int) (cuts [][]int, live, stride int, err error) {
	cuts, live, stride = cr.plan(n)
	if cr.moved > cr.held || live < 0 || live > n {
		err = fmt.Errorf("%d survivors of %d records, after %d moved of the %d it describes", live, n, cr.moved, cr.held)
	}
	return cuts, live, stride, err
}

func checkCarriedColumns(cr *carried, f *fresh, ct *content) error {
	if _, _, _, err := carriedPrefix(cr, len(f.recs)); err != nil {
		return err
	}
	c := &columns{codes: make([][]uint32, cr.key.(columnsKey).width)}
	live := cr.restore(c, len(f.recs))
	return sameColumns(c, f.columns(ct.dicts, len(c.codes)), live)
}

func checkCarriedHashes(cr *carried, f *fresh, _ *content) error {
	cuts, live, stride, err := carriedPrefix(cr, len(f.recs))
	if err != nil {
		return err
	}
	hs := make([]uint64, stride)
	carryInto(hs, cr.hashes, cuts)
	if !slices.Equal(hs[:live], f.keyHashes()[:live]) {
		return fmt.Errorf("the hashes of %d survivors differ from their keys'", live)
	}
	return nil
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

type heldSlice struct {
	route     string
	recs, was []KV
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
}

// TestDerivedStateWalk is the oracle for a store's derived state (DESIGN.md
// §6): a seeded walk drives a cluster and up to three clones through the
// mutating and reading API and, after every step, holds every memo, carry
// and store-owned cell column to its fresh build (derivedKinds), every
// handed-out slice and shared array to the escape rule, and each store's
// records, Len, Version and content to what the step wrote. A failure names
// the seed (the subtest), the step and the kind.
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
				w.held = append(w.held, heldSlice{route, held, slices.Clone(held)})
				recs = held[:1+w.rng.Intn(len(held)-1)]
			}
		}
		w.op = route
		w.held = append(w.held, heldSlice{route, recs, slices.Clone(recs)})
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
		w.op = "snapshot"
		for _, sd := range c.Data {
			for _, st := range sd.stores {
				recs := st.Records()
				w.held = append(w.held, heldSlice{w.op, recs, slices.Clone(recs)})
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

// scan lays the store out, holds the layout's records and scans them under
// a MapFn and under a Select, which builds the key columns: both read what
// a fresh layout reads.
func (w *walk) scan(st *Store, width int) {
	stage := []Stage{{Exec: Executors{Machines: 2, PerMachine: 2}}, {Exec: Executors{Machines: 1, PerMachine: 3}, CubeInput: true}}[w.rng.Intn(2)]
	w.op = fmt.Sprintf("Layout%+v and Scan", stage)
	l, _, err := st.Layout(stage)
	if err != nil {
		w.fail("layout", "%v", err)
	}
	w.held = append(w.held, heldSlice{"Layout", l.records, slices.Clone(l.records)})
	fresh, _ := NewLayout(slices.Clone(l.records), stage)
	v := NewView(width, w.rng.Intn(width))
	for _, q := range []Query{{Map: v.Map()}, {Select: &Select{View: v, Where: []Cond{{Field: 1, Pass: func(s string) bool { return s < "c3" }}}}}} {
		if got, want := l.Scan(&q), fresh.Scan(&q); !reflect.DeepEqual(got, want) {
			w.fail("layout", "a scan (Select %v) reads %d groups of %d records, a fresh layout's %d of %d", q.Select != nil, len(got.Inter), got.Raw, len(want.Inter), want.Raw)
		}
	}
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
	done := map[*content]bool{}
	next := map[*Store]storeState{}
	for _, st := range stores {
		f := w.freshOf(st)
		w.checkStore(where[st], st, f)
		next[st] = storeState{f.recs, st.version, st.content}
		if st.content != nil && !done[st.content] {
			done[st.content] = true
			w.checkContent(where[st], st.content, f)
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

// checkContent holds every memo and carry of ct to its kind's fresh build.
func (w *walk) checkContent(where string, ct *content, f *fresh) {
	ct.mu.Lock()
	memo, carry := maps.Clone(ct.memo), slices.Clone(ct.carry)
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
	}
	for _, cr := range carry {
		check(cr.key, "carried ", func(k derivedKind) error {
			if k.carried == nil {
				return fmt.Errorf("a kind that is never carried")
			}
			return k.carried(&cr, f, ct)
		})
	}
}

// checkHeld holds every slice handed out to what it read when handed out,
// and every store whose record array a handed-out slice or another store
// shares to the escape rule: its escape bit is set, so no remove compacts
// the array in place. A slice whose array no store holds any more is
// forgotten: nothing can write it.
func (w *walk) checkHeld(stores []*Store, where map[*Store]string) {
	holders := map[*KV][]string{}
	for _, st := range stores {
		if len(st.recs) > 0 {
			holders[unsafe.SliceData(st.recs)] = append(holders[unsafe.SliceData(st.recs)], "the store at "+where[st])
		}
	}
	kept := w.held[:0]
	for _, h := range w.held {
		if !slices.Equal(h.recs, h.was) {
			w.fail("handed-out slice", "a slice %s handed out changed", h.route)
		}
		if p := unsafe.SliceData(h.recs); len(h.recs) > 0 && holders[p] != nil {
			holders[p] = append(holders[p], h.route)
			kept = append(kept, h)
		}
	}
	w.held = kept
	for _, st := range stores {
		if hs := holders[unsafe.SliceData(st.recs)]; len(st.recs) > 0 && len(hs) > 1 && !st.escaped.Load() {
			w.fail("escape bit", "%s: unset on records %v hold", where[st], hs)
		}
	}
}

// TestOnlyStoreTouchesRecords is the record-slice rule as a source check:
// no non-test file of the package but store.go selects a store's recs, so
// every route by which the slice leaves the store is one store.go marks.
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
