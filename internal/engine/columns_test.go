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
	if err := st.Remove(st.Select(RandomMover{}, st, 150, stats.NewRand(2))); err != nil {
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

// freshEncode is the build without a carry: every one of the store's records
// encoded through the lineage's dictionaries, as they stand.
func freshEncode(st *Store, width int) *columns {
	c := &columns{codes: make([][]uint32, width), dict: make([][]string, width)}
	(*carried)(nil).restore(c, len(st.recs))
	st.content.dicts.encode(c, st.recs, 0)
	return c
}

// TestCarriedColumnsMatchFreshEncode runs seeded sequences of writes — Adds
// of known, brand-new and foreign-width keys, Removes chosen by RandomMover
// and SimilarMover, a clone writing beside its source, a Restore, and a run
// of writes long enough to drop the carry — and after every step builds the
// store's columns the way a Select does. Within the lineage they must equal,
// bit for bit, a fresh encode of the same records through the same
// dictionaries, and every code must decode to the record's field.
func TestCarriedColumnsMatchFreshEncode(t *testing.T) {
	const width = 3
	stage := Stage{Exec: Executors{Machines: 2, PerMachine: 2}}
	similar := SimilarMover{View: NewView(width, 0)}
	for seed := int64(1); seed <= 6; seed++ {
		rng := stats.NewRand(seed)
		newValues := 0
		key := func() string {
			switch r := rng.Intn(20); {
			case r == 0: // foreign: another width
				return fmt.Sprintf("k%d%sx", rng.Intn(9), KeySep)
			case r == 1: // a value no dictionary holds yet
				newValues++
				return fmt.Sprintf("k%d%snew%d%sh%d", rng.Intn(9), KeySep, newValues, KeySep, rng.Intn(4))
			default:
				return fmt.Sprintf("k%d%sc%d%sh%d", rng.Intn(9), KeySep, rng.Intn(5), KeySep, rng.Intn(4))
			}
		}
		add := func(st *Store, n int) {
			recs := make([]KV, n)
			for i := range recs {
				recs[i] = KV{Key: key(), Val: float64(i)}
			}
			st.Add(recs...)
		}
		remove := func(st *Store, n int) {
			var sel Selection
			if rng.Intn(2) == 0 {
				sel = st.Select(RandomMover{}, st, n, rng)
			} else {
				sel = st.Select(similar, DstCells{fmt.Sprintf("k%d", rng.Intn(9)): 1}, n, rng)
			}
			if err := st.Remove(sel); err != nil {
				t.Fatal(err)
			}
		}
		write := func(st *Store) {
			if rng.Intn(2) == 0 || len(st.recs) < 40 {
				add(st, 1+rng.Intn(30))
			} else {
				remove(st, 1+rng.Intn(len(st.recs)/8))
			}
		}
		// check builds st's columns and returns how many records the build
		// encoded.
		check := func(step string, st *Store) int {
			t.Helper()
			l, _, err := st.Layout(stage)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := l.columns(width)
			want := freshEncode(st, width)
			for f := range want.codes {
				if !slices.Equal(got.codes[f], want.codes[f]) || !slices.Equal(got.dict[f], want.dict[f]) {
					t.Fatalf("seed %d, %s: field %d's codes or dictionary differ from a fresh encode's", seed, step, f)
				}
			}
			if !slices.Equal(got.foreign, want.foreign) {
				t.Fatalf("seed %d, %s: foreign records %v, a fresh encode has %v", seed, step, got.foreign, want.foreign)
			}
			foreign := got.foreign
			for i, r := range st.recs {
				if len(foreign) > 0 && int(foreign[0]) == i {
					foreign = foreign[1:]
					if strings.Count(r.Key, KeySep) == width-1 {
						t.Fatalf("seed %d, %s: record %d (%q) is marked foreign", seed, step, i, r.Key)
					}
					continue
				}
				fields := strings.Split(r.Key, KeySep)
				if len(fields) != width {
					t.Fatalf("seed %d, %s: foreign record %d (%q) is not marked", seed, step, i, r.Key)
				}
				for f, text := range fields {
					if got.dict[f][got.codes[f][i]] != text {
						t.Fatalf("seed %d, %s: record %d field %d decodes to %q, not %q", seed, step, i, f, got.dict[f][got.codes[f][i]], text)
					}
				}
			}
			return got.encoded
		}

		st := &Store{}
		add(st, 300)
		if n := check("first build", st); n != 300 {
			t.Fatalf("seed %d: the first build encoded %d of 300 records", seed, n)
		}
		carriedBuilds := 0
		for step := 0; step < 40; step++ {
			name := fmt.Sprintf("step %d", step)
			for w := rng.Intn(3); w >= 0; w-- {
				write(st)
			}
			if step%10 == 5 {
				// A clone writes beside its source, then the source writes.
				cl := st.clone()
				write(cl)
				write(cl)
				check(name+" clone", cl)
				write(st)
			}
			if check(name, st) < len(st.recs) {
				carriedBuilds++
			}
		}
		if carriedBuilds < 20 {
			t.Fatalf("seed %d: only %d of 40 builds carried columns", seed, carriedBuilds)
		}

		// Writes that move more records than the last build described drop
		// the carry.
		held := len(st.recs)
		for moved := 0; moved <= held; moved += 10 {
			add(st, 5)
			remove(st, 5)
		}
		if n := check("after a long run of writes", st); n != len(st.recs) {
			t.Fatalf("seed %d: after the carry's drop the build encoded %d of %d records", seed, n, len(st.recs))
		}

		recs := slices.Clone(st.recs)
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		st.Restore(recs)
		if n := check("after a Restore", st); n != len(recs) {
			t.Fatalf("seed %d: the build after a Restore encoded %d of %d records", seed, n, len(recs))
		}
		write(st)
		check("after a Restore and a write", st)
	}
}
