package engine

import (
	"context"
	"fmt"
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

// decode rebuilds the keys the columns stand for.
func (c *columns) decode(n int) []string {
	out := make([]string, n)
	for i := range out {
		fields := make([]string, len(c.codes))
		for f := range fields {
			fields[f] = c.dict[f][c.codes[f][i]]
		}
		out[i] = strings.Join(fields, KeySep)
	}
	return out
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
// every site's keys are encoded once, exactly one query is told it missed
// at each site, all get what the equivalent MapFn gets, and a write to one
// site re-encodes that site only. Then the clones write — each interning
// new values into the dictionaries it shares with the source — while the
// source's columns are decoded: they keep standing for the source's keys.
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
		if c.Data[i].Store("d").content.dicts != nil {
			t.Fatalf("site %d: a MapFn query allocated dictionaries", i)
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

	// The source's columns, as every clone shares them.
	source := make([]*columns, c.N())
	for i := range source {
		l, _, err := c.Data[i].Store("d").Layout(Stage{Exec: c.Exec[i]})
		if err != nil {
			t.Fatal(err)
		}
		var hit bool
		if source[i], hit = l.columns(2); !hit {
			t.Fatalf("site %d: the source's columns were not the ones its clones built", i)
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
	for i, cols := range source {
		if recs := c.Data[i].Records("d"); !slices.Equal(cols.decode(len(recs)), keysOf(recs)) {
			t.Fatalf("site %d: the source's columns no longer decode to its keys", i)
		}
	}
	wg.Wait()
	for i, cols := range source {
		if recs := c.Data[i].Records("d"); !slices.Equal(cols.decode(len(recs)), keysOf(recs)) {
			t.Fatalf("site %d: after its clones' writes the source's columns no longer decode to its keys", i)
		}
	}

	// A write to one site leaves that site's columns behind, and only that.
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
// their writes make of them intern into one set of dictionaries, which never
// renumbers or forgets a value — so a re-encode after a write interns the
// new values alone — and a Restore starts another. Queries that are not
// Selects never allocate one.
func TestDictionarySharedAcrossClonesOnlyGrows(t *testing.T) {
	st := &Store{}
	for i := 0; i < 200; i++ {
		st.Add(KV{Key: fmt.Sprintf("k%d%sc%d", i%17, KeySep, i%3), Val: 1})
	}
	stage := Stage{Exec: Executors{Machines: 1, PerMachine: 2}}
	colsOf := func(s *Store) *columns {
		l, _, err := s.Layout(stage)
		if err != nil {
			t.Fatal(err)
		}
		cols, _ := l.columns(2)
		return cols
	}
	scan, _ := selectQuery("d")
	scan.Select = nil
	if l, _, _ := st.Layout(stage); l.Scan(&scan).Raw != 200 || st.content.dicts != nil {
		t.Fatal("an identity scan allocated dictionaries (or did not read the 200 records)")
	}
	before := colsOf(st)
	dicts := st.content.dicts
	if dicts == nil || len(before.dict[0]) != 17 || len(before.dict[1]) != 3 || len(before.foreign) != 0 {
		t.Fatalf("dictionaries of %d and %d values, %d foreign keys; want 17, 3, 0", len(before.dict[0]), len(before.dict[1]), len(before.foreign))
	}

	clone := st.clone()
	clone.Add(KV{Key: "k3" + KeySep + "brand-new", Val: 1}, KV{Key: "lonely", Val: 1})
	if err := st.remove(st.choose(RandomMover{}, st, 150, stats.NewRand(2))); err != nil {
		t.Fatal(err)
	}
	if clone.content.dicts != dicts || st.content.dicts != dicts {
		t.Fatal("a write left the lineage's dictionaries behind")
	}
	after := colsOf(clone)
	if !slices.Equal(after.dict[0], before.dict[0]) || !slices.Equal(after.dict[1][:3], before.dict[1]) ||
		len(after.dict[1]) != 4 || !slices.Equal(after.foreign, []int32{201}) {
		t.Fatalf("after the clone's write: dictionaries %v / %v, foreign %v", after.dict[0], after.dict[1], after.foreign)
	}
	// The source lost 150 records; its dictionary did not shrink, and the
	// codes it assigns are the ones it assigned before.
	shrunk := colsOf(st)
	if len(shrunk.dict[0]) != 17 || len(shrunk.dict[1]) != 4 {
		t.Fatalf("after a Remove the dictionaries hold %d and %d values, want 17 and 4", len(shrunk.dict[0]), len(shrunk.dict[1]))
	}
	if recs := st.Records(); !slices.Equal(shrunk.decode(len(recs)), keysOf(recs)) {
		t.Fatal("the re-encoded columns do not decode to the store's keys")
	}

	st.Restore(slices.Clone(st.Records()))
	if st.content.dicts != nil {
		t.Fatal("a restored store kept its predecessor's dictionaries")
	}
}

// TestDistinctKeysExactUnderCollidingHashes counts a cube-input executor's
// distinct keys with every hash forced equal — each probe runs the whole
// chain, and only the key compare tells keys apart — and with the keys' own
// hashes; both must equal a map's count, over executors whose partitions
// are scattered index ranges of the records.
func TestDistinctKeysExactUnderCollidingHashes(t *testing.T) {
	rng := stats.NewRand(3)
	recs := make([]KV, 900)
	own := make([]uint64, len(recs))
	for i := range recs {
		recs[i].Key = fmt.Sprintf("k%d%sc%d", rng.Intn(60), KeySep, rng.Intn(3))
		if rng.Intn(30) == 0 {
			recs[i].Key = ""
		}
		own[i] = KeyHash(recs[i].Key)
	}
	for _, forced := range []uint64{0, 42} {
		same := make([]uint64, len(recs))
		for i := range same {
			same[i] = forced
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
			for _, hashes := range [][]uint64{same, own} {
				if got := distinctKeys(recs, hashes, parts, n); got != len(want) {
					t.Fatalf("hash %d, parts %v: counted %d distinct keys, a map holds %d", forced, parts, got, len(want))
				}
			}
		}
	}
}
