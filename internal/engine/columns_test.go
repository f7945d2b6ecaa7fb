package engine

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bohr/internal/obs"
	"bohr/internal/stats"
)

// selectQuery is "SELECT f0, SUM(v) WHERE f1 != 'c0' GROUP BY f0" over
// two-field keys, as a Select and as a MapFn.
func selectQuery(dataset string) (sel, fn Query) {
	notC0 := func(s string) bool { return s != "c0" }
	sel = Query{Name: "sel", Dataset: dataset, Combine: OpSum, MapCost: DefaultMapCost, ReduceCost: DefaultReduceCost,
		Select: &Select{View: NewView(2, 0), Where: []Cond{{Field: 1, Pass: notC0}}}}
	fn = sel
	fn.Select = nil
	fn.Map = func(r KV, emit func(string, float64)) {
		if f := strings.Split(r.Key, KeySep); len(f) == 2 && notC0(f[1]) {
			emit(f[0], r.Val)
		}
	}
	return sel, fn
}

func loadTwoFields(c *Cluster, dataset string) {
	rng := stats.NewRand(5)
	for i := 0; i < c.N(); i++ {
		for k := 0; k < 600; k++ {
			c.Data[i].Add(dataset, KV{Key: fmt.Sprintf("k%d%sc%d", rng.Intn(40), KeySep, rng.Intn(4)), Val: rng.Float64()})
		}
	}
}

// decode rebuilds the keys the ids stand for from their field codes.
func (kc *keyColumn) decode() []string {
	out := make([]string, len(kc.ids))
	coded := kc.coded()
	for i, id := range kc.ids {
		codes := coded.key(id)
		fields := make([]string, len(codes))
		for f, c := range codes {
			fields[f] = coded.fields[f][c]
		}
		out[i] = strings.Join(fields, KeySep)
	}
	return out
}

// len returns how many keys the dictionary holds.
func (d *keyDict) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tab.keys)
}

func keysOf(recs []KV) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

func TestQueryValidateSelect(t *testing.T) {
	pass := func(string) bool { return true }
	ok := Query{Name: "q", Dataset: "d", Select: &Select{View: NewView(2, 1, 0), Where: []Cond{{Field: 1, Pass: pass}}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(q *Query){
		"both Map and Select": func(q *Query) { q.Map = func(KV, func(string, float64)) {} },
		"iterated":            func(q *Query) { q.Iterations = 2 },
		"conjunct past width": func(q *Query) { q.Select = &Select{View: NewView(2), Where: []Cond{{Field: 2, Pass: pass}}} },
		"keep past width":     func(q *Query) { q.Select = &Select{View: NewView(2, -1)} },
		"no width":            func(q *Query) { q.Select = &Select{} },
	} {
		q := ok
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestColumnsBuiltOncePerContent has many goroutines send the first Select
// over stores nobody has scanned, each through its own clone of the cluster:
// every site's keys are interned once, exactly one query is told it missed
// at each site, all get what the equivalent MapFn gets, and a write to one
// site re-interns that site only. Then the clones write — each interning
// new keys into the dictionary it shares with the source — while the
// source's key ids are decoded: they keep standing for the source's keys.
// Run under -race (make race).
func TestColumnsBuiltOncePerContent(t *testing.T) {
	c := testCluster(t)
	loadTwoFields(c, "d")
	sel, fn := selectQuery("d")
	want, err := c.Clone().Run(context.Background(), JobConfig{Query: fn})
	if err != nil {
		t.Fatal(err)
	}
	sites := int64(c.N())
	for i := 0; i < c.N(); i++ {
		if c.Data[i].Store("d").content.dict.len() != 0 {
			t.Fatalf("site %d: a MapFn query interned keys", i)
		}
	}

	const queries = 12
	clones := make([]*Cluster, queries)
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range clones {
		clones[g] = c.Clone()
		col := obs.NewCollector()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := clones[g].Run(context.Background(), JobConfig{Query: sel, Obs: col})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("query %d: the Select's result differs from the MapFn's", g)
			}
			counters := col.MetricsSnapshot().Counters
			hits.Add(int64(counters[CounterColumnsHits]))
			misses.Add(int64(counters[CounterColumnsMisses]))
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if misses.Load() != sites || hits.Load() != (queries-1)*sites {
		t.Fatalf("%d queries over %d cold sites: %d column misses, %d hits; want %d, %d",
			queries, sites, misses.Load(), hits.Load(), sites, (queries-1)*sites)
	}

	// The source's key ids, as every clone shares them.
	source := make([]*keyColumn, c.N())
	for i := range source {
		var hit bool
		if source[i], hit = c.Data[i].Store("d").keyColumn(); !hit {
			t.Fatalf("site %d: the source's key ids were not the ones its clones built", i)
		}
	}
	for g, clone := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < clone.N(); i++ {
				clone.Data[i].Add("d", KV{Key: fmt.Sprintf("new%d%sfresh%d", g, KeySep, i), Val: 1})
			}
			if _, err := clone.Run(context.Background(), JobConfig{Query: sel}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i, kc := range source {
		if recs := c.Data[i].Records("d"); !slices.Equal(kc.decode(), keysOf(recs)) {
			t.Fatalf("site %d: the source's key ids no longer decode to its keys", i)
		}
	}
	wg.Wait()
	for i, kc := range source {
		if recs := c.Data[i].Records("d"); !slices.Equal(kc.decode(), keysOf(recs)) {
			t.Fatalf("site %d: after its clones' writes the source's key ids no longer decode to its keys", i)
		}
	}

	// A write to one site leaves that site's key ids behind, and only that.
	c.Data[1].Add("d", KV{Key: "k1" + KeySep + "c9", Val: 1})
	col := obs.NewCollector()
	if _, err := c.Run(context.Background(), JobConfig{Query: sel, Obs: col}); err != nil {
		t.Fatal(err)
	}
	if counters := col.MetricsSnapshot().Counters; counters[CounterColumnsMisses] != 1 || counters[CounterColumnsHits] != float64(sites-1) {
		t.Fatalf("after a write to one site: %v column misses, %v hits; want 1, %d",
			counters[CounterColumnsMisses], counters[CounterColumnsHits], sites-1)
	}
	if col.MetricsSnapshot().Histograms[HistColumnsBuild].Count != 0 {
		t.Fatal("a collector without a wall clock was given a wall time")
	}
}

// TestDictionarySharedAcrossClonesOnlyGrows: a store, its clones and what
// their writes make of them intern into one key dictionary, which never
// renumbers or forgets a key — so the ids after a write intern the new keys
// alone — and a Restore starts another. Queries that read no key never
// intern one.
func TestDictionarySharedAcrossClonesOnlyGrows(t *testing.T) {
	st := &Store{}
	for i := 0; i < 200; i++ {
		st.Add(KV{Key: fmt.Sprintf("k%d%sc%d", i%17, KeySep, i%3), Val: 1})
	}
	stage := Stage{Exec: Executors{Machines: 1, PerMachine: 2}}
	idsOf := func(s *Store) *keyColumn {
		if _, _, err := s.Layout(stage); err != nil {
			t.Fatal(err)
		}
		kc, _ := s.keyColumn()
		return kc
	}
	scan, _ := selectQuery("d")
	scan.Select = nil
	if l, _, _ := st.Layout(stage); l.Scan(&scan).Raw != 200 || st.content.dict.len() != 0 {
		t.Fatal("an identity scan interned keys (or did not read the 200 records)")
	}
	before := idsOf(st)
	dict, fields := st.content.dict, before.coded()
	if len(before.dict.keys) != 51 || len(fields.fields[0]) != 17 || len(fields.fields[1]) != 3 || fields.foreign(2) {
		t.Fatalf("%d keys, fields of %d and %d values, foreign keys %v; want 51, 17, 3, none",
			len(before.dict.keys), len(fields.fields[0]), len(fields.fields[1]), fields.widths)
	}

	clone := st.clone()
	clone.Add(KV{Key: "k3" + KeySep + "brand-new", Val: 1}, KV{Key: "lonely", Val: 1})
	if err := st.remove(st.choose(RandomMover{}, st, 150, stats.NewRand(2))); err != nil {
		t.Fatal(err)
	}
	if clone.content.dict != dict || st.content.dict != dict {
		t.Fatal("a write left the lineage's dictionary behind")
	}
	after := idsOf(clone)
	afterFields := after.coded()
	if !slices.Equal(after.dict.keys[:51], before.dict.keys) || !slices.Equal(after.dict.keys[51:], []string{"k3" + KeySep + "brand-new", "lonely"}) ||
		!slices.Equal(after.ids[:200], before.ids) || after.ids[200] != 51 || after.ids[201] != 52 ||
		!slices.Equal(afterFields.fields[1], append(slices.Clone(fields.fields[1]), "brand-new")) || !afterFields.foreign(2) {
		t.Fatalf("after the clone's write: keys %q, ids %v, fields %v / %v", after.dict.keys, after.ids[198:], afterFields.fields[0], afterFields.fields[1])
	}
	// The source lost 150 records; its dictionary did not shrink, and the
	// ids it gives are the ones it gave before.
	shrunk := idsOf(st)
	if len(shrunk.dict.keys) != 53 || shrunk.encoded != 0 {
		t.Fatalf("after a Remove the dictionary holds %d keys and the ids interned %d records, want 53 and 0", len(shrunk.dict.keys), shrunk.encoded)
	}
	if recs := st.Records(); !slices.Equal(shrunk.decode(), keysOf(recs)) {
		t.Fatal("the carried ids do not decode to the store's keys")
	}

	st.Restore(slices.Clone(st.Records()))
	if st.content.dict == dict || st.content.dict.len() != 0 {
		t.Fatal("a restored store kept its predecessor's dictionary")
	}
}

// TestCarriedIDsExtendedByOneBuild: ids rebuilt from a carry keep room to
// grow, and of two stores that append to one content — a store and its
// clone, building at once — exactly one extends the ids in their own array
// and the other copies them: each column decodes to its own store's keys,
// and the content both came from still to its own. Run under -race.
func TestCarriedIDsExtendedByOneBuild(t *testing.T) {
	batch := func(tag string, n int) []KV {
		out := make([]KV, n)
		for i := range out {
			out[i] = KV{Key: fmt.Sprintf("%s%d%sc%d", tag, i%23, KeySep, i%3), Val: 1}
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		st := &Store{}
		st.Add(batch("k", 300)...)
		st.keyColumn()            // a fresh build: no room
		st.Add(batch("k", 40)...) // appended: the next build copies, with room
		base, _ := st.keyColumn()
		if cap(base.ids) <= len(base.ids) {
			t.Fatalf("ids rebuilt from a carry have no room to grow: len %d, cap %d", len(base.ids), cap(base.ids))
		}
		clone := st.clone()
		st.Add(batch("a", 20)...)
		clone.Add(batch("b", 30)...)
		cols := make([]*keyColumn, 2)
		var wg sync.WaitGroup
		for i, s := range []*Store{st, clone} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cols[i], _ = s.keyColumn()
			}()
		}
		wg.Wait()
		inPlace := 0
		for i, s := range []*Store{st, clone} {
			if !slices.Equal(cols[i].decode(), keysOf(s.Records())) {
				t.Fatalf("trial %d: store %d's ids do not decode to its keys", trial, i)
			}
			if &cols[i].ids[0] == &base.ids[0] {
				inPlace++
			}
		}
		if !slices.Equal(base.decode(), keysOf(st.Records()[:len(base.ids)])) || inPlace != 1 {
			t.Fatalf("trial %d: the common content's ids decode to other keys, or %d builds extended them in place, want 1", trial, inPlace)
		}
	}
}

// refDistinctKeys is the distinct count before key ids: an open-addressed
// set of the records' hashes, a slot holding a hash and the position, from
// 1, of the first record seen with it. A record whose hash matches a slot's
// is that key again only when the keys are equal.
func refDistinctKeys(recs []KV, hashes []uint64, parts []span, n int) int {
	size := 1 << bits.Len(uint(2*n))
	tab, mask, distinct := make([]openSlot, size), uint64(size-1), 0
	for _, p := range parts {
		for i := p.lo; i < p.hi; i++ {
			h, j := hashes[i], hashes[i]&mask
			for tab[j].ord != 0 && (tab[j].tuple != h || recs[tab[j].ord-1].Key != recs[i].Key) {
				j = (j + 1) & mask
			}
			if tab[j].ord == 0 {
				tab[j] = openSlot{tuple: h, ord: int32(i + 1)}
				distinct++
			}
		}
	}
	return distinct
}

// TestDistinctKeysExactUnderCollidingHashes interns a cube-input executor's
// keys with every hash forced equal — each lookup in the interning table
// runs the whole chain, and only the key compare tells keys apart — and
// with the keys' own hashes, then counts the distinct ids: both must equal
// a map's count and the hash-set reference's, over executors whose
// partitions are scattered index ranges of the records.
func TestDistinctKeysExactUnderCollidingHashes(t *testing.T) {
	rng := stats.NewRand(3)
	recs := make([]KV, 900)
	for i := range recs {
		recs[i].Key = fmt.Sprintf("k%d%sc%d", rng.Intn(60), KeySep, rng.Intn(3))
		if rng.Intn(30) == 0 {
			recs[i].Key = ""
		}
	}
	forced := func(h uint64) func(string) uint64 { return func(string) uint64 { return h } }
	for _, hash := range []func(string) uint64{forced(0), forced(42), KeyHash} {
		d := &keyDict{hash: hash}
		kc := &keyColumn{ids: make([]int32, len(recs))}
		kc.dict = d.intern(recs, kc.ids)
		hashes := make([]uint64, len(recs))
		for i, r := range recs {
			hashes[i] = hash(r.Key)
		}
		for trial := 0; trial < 20; trial++ {
			// A few disjoint ranges, out of order, as an assigner deals them.
			bounds := []int{0, len(recs)}
			for k := rng.Intn(8); k > 0; k-- {
				bounds = append(bounds, rng.Intn(len(recs)))
			}
			slices.Sort(bounds)
			var parts []span
			for i := 1; i < len(bounds); i++ {
				parts = append(parts, span{bounds[i-1], bounds[i]})
			}
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			parts = parts[:1+rng.Intn(len(parts))]
			want, n := map[string]struct{}{}, 0
			for _, p := range parts {
				for _, r := range recs[p.lo:p.hi] {
					want[r.Key] = struct{}{}
				}
				n += p.hi - p.lo
			}
			if got, ref := distinctKeys(kc, parts), refDistinctKeys(recs, hashes, parts, n); got != len(want) || ref != len(want) {
				t.Fatalf("hash of %q = %x, parts %v: counted %d distinct keys, the reference %d, a map holds %d", "k1", hash("k1"), parts, got, ref, len(want))
			}
		}
	}
}
