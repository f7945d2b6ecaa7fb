package workload

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/similarity"
	"bohr/internal/wan"
)

func smallConfig() Config {
	cfg := DefaultConfig(BigDataScan)
	cfg.Sites = 3
	cfg.Datasets = 2
	cfg.RowsPerSite = 300
	cfg.KeysPerPool = 50
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Sites: 3, Datasets: 1, RowsPerSite: 10, Overlap: 2, KeysPerPool: 5, QueriesMin: 1, QueriesMax: 2},
		{Sites: 3, Datasets: 1, RowsPerSite: 10, KeysPerPool: 0, QueriesMin: 1, QueriesMax: 2},
		{Sites: 3, Datasets: 1, RowsPerSite: 10, KeysPerPool: 5, QueriesMin: 5, QueriesMax: 2},
		{Sites: 3, Datasets: 1, RowsPerSite: 10, KeysPerPool: 5, QueriesMin: 0, QueriesMax: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(BigDataScan, cfg); err == nil {
			t.Fatalf("case %d should error", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if len(Kinds()) != 5 {
		t.Fatal("five workload kinds expected")
	}
	for _, k := range Kinds() {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("bad kind should be unknown")
	}
}

func TestGenerateShape(t *testing.T) {
	for _, kind := range Kinds() {
		cfg := smallConfig()
		w, err := Generate(kind, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(w.Datasets) != cfg.Datasets {
			t.Fatalf("%v: datasets = %d", kind, len(w.Datasets))
		}
		for _, ds := range w.Datasets {
			if len(ds.Rows) != cfg.Sites {
				t.Fatalf("%v/%s: row sites = %d", kind, ds.Name, len(ds.Rows))
			}
			total := 0
			for _, rows := range ds.Rows {
				total += len(rows)
			}
			if total != cfg.Sites*cfg.RowsPerSite {
				t.Fatalf("%v/%s: total rows = %d, want %d", kind, ds.Name, total, cfg.Sites*cfg.RowsPerSite)
			}
			if len(ds.Queries) < 2 {
				t.Fatalf("%v/%s: only %d query types", kind, ds.Name, len(ds.Queries))
			}
			tq := ds.TotalQueries()
			if tq < cfg.QueriesMin || tq > cfg.QueriesMax {
				t.Fatalf("%v/%s: %d queries outside [%d,%d]", kind, ds.Name, tq, cfg.QueriesMin, cfg.QueriesMax)
			}
			for _, q := range ds.Queries {
				if err := q.Query.Validate(); err != nil {
					t.Fatalf("%v/%s: invalid query: %v", kind, ds.Name, err)
				}
				for _, d := range q.Dims {
					if !ds.Schema.Has(d) {
						t.Fatalf("%v/%s: query dim %q not in schema", kind, ds.Name, d)
					}
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	w1, err := Generate(TPCDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(TPCDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := range w1.Datasets {
		for s := range w1.Datasets[d].Rows {
			r1, r2 := w1.Datasets[d].Rows[s], w2.Datasets[d].Rows[s]
			if len(r1) != len(r2) {
				t.Fatal("row counts differ between identical generations")
			}
			for i := range r1 {
				if JoinKey(r1[i].Coords) != JoinKey(r2[i].Coords) || r1[i].Measure != r2[i].Measure {
					t.Fatal("rows differ between identical generations")
				}
			}
		}
	}
}

func TestWeightsSumToOne(t *testing.T) {
	w, err := Generate(Facebook, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range w.Datasets {
		var sum float64
		for _, wt := range ds.Weights() {
			sum += wt
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("weights sum to %v", sum)
		}
	}
}

func TestDominantQuery(t *testing.T) {
	ds := &Dataset{Queries: []QuerySpec{
		{Count: 2, Dims: []string{"a"}},
		{Count: 7, Dims: []string{"b"}},
	}}
	if got := ds.DominantQuery(); got.Count != 7 {
		t.Fatalf("dominant = %+v", got)
	}
}

func TestLocalityIncreasesSelfSimilarity(t *testing.T) {
	cfg := smallConfig()
	cfg.RowsPerSite = 1000

	measure := func(locality bool) float64 {
		c := cfg
		c.LocalityAware = locality
		w, err := Generate(BigDataScan, c)
		if err != nil {
			t.Fatal(err)
		}
		// Mean per-site self-similarity on full keys.
		var total float64
		var n int
		for _, ds := range w.Datasets {
			for _, rows := range ds.Rows {
				recs := make([]engine.KV, len(rows))
				for i, r := range rows {
					recs[i] = engine.KV{Key: JoinKey(r.Coords), Val: r.Measure}
				}
				total += engine.SelfSimilarity(recs)
				n++
			}
		}
		return total / float64(n)
	}
	local := measure(true)
	random := measure(false)
	if local <= random {
		t.Fatalf("locality-aware placement should raise self-similarity: local=%v random=%v", local, random)
	}
}

func TestOverlapIncreasesCrossSiteSimilarity(t *testing.T) {
	crossSim := func(overlap float64) float64 {
		cfg := smallConfig()
		cfg.Overlap = overlap
		// Locality-aware placement keeps each site's rows where they were
		// produced, so the shared-pool fraction is what the two sites have
		// in common. (Under random scatter every site sees the same
		// mixture and overlap barely matters.)
		cfg.LocalityAware = true
		cfg.RowsPerSite = 1000
		w, err := Generate(BigDataScan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds := w.Datasets[0]
		keys := func(site int) []string {
			var out []string
			for _, r := range ds.Rows[site] {
				out = append(out, JoinKey(r.Coords))
			}
			return out
		}
		return similarity.ExactJaccard(keys(0), keys(1))
	}
	high := crossSim(0.9)
	low := crossSim(0.1)
	if high <= low {
		t.Fatalf("overlap should raise cross-site similarity: high=%v low=%v", high, low)
	}
}

func TestPopulate(t *testing.T) {
	cfg := smallConfig()
	w, err := Generate(TPCDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := wan.NewTopology([]string{"a", "b", "c"}, []float64{1, 1, 1}, []float64{1, 1, 1})
	c, _ := engine.NewCluster(top, 1, 2, 100)
	if err := w.Populate(c); err != nil {
		t.Fatal(err)
	}
	names := c.DatasetNames()
	if len(names) != cfg.Datasets {
		t.Fatalf("cluster datasets = %v", names)
	}
	total := 0
	for i := 0; i < c.N(); i++ {
		total += len(c.Data[i].Records(names[0]))
	}
	if total != cfg.Sites*cfg.RowsPerSite {
		t.Fatalf("populated rows = %d", total)
	}
	// A too-small cluster errors.
	top2, _ := wan.NewTopology([]string{"x"}, []float64{1}, []float64{1})
	c2, _ := engine.NewCluster(top2, 1, 1, 100)
	if err := w.Populate(c2); err == nil {
		t.Fatal("small cluster should error")
	}
}

// TestTuplesMatchFmtFormats holds the generators' tuple text to the fmt
// formats it was first written with, kept here as the reference: every
// kind, every pool scope (shared, affinity groups, sites) and every tuple
// index in [0, 10050), which crosses %04d's width.
func TestTuplesMatchFmtFormats(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(scope string, t int) []string
		ref  func(scope string, t int) []string
	}{
		{"amplab", amplabTuple, func(scope string, t int) []string {
			return []string{fmt.Sprintf("%s.u%04d.example.com/page%d", scope, t, t%97),
				countries[t%len(countries)], fmt.Sprintf("%02d", t%24)}
		}},
		{"tpcds", tpcdsTuple, func(scope string, t int) []string {
			return []string{fmt.Sprintf("item-%s-%04d", scope, t), fmt.Sprintf("store-%03d", t%50),
				fmt.Sprintf("2018-%02d-%02d", t%12+1, t%28+1), regions[t%len(regions)]}
		}},
		{"facebook", facebookTuple, func(scope string, t int) []string {
			return []string{fmt.Sprintf("class-%s-%03d", scope, t%120),
				fmt.Sprintf("user-%s-%04d", scope, t), fmt.Sprintf("%02d", t%24)}
		}},
	}
	scopes := map[int]string{-1: "shared"}
	for g := range 4 {
		scopes[-(2 + g)] = fmt.Sprintf("group%d", g)
	}
	for i := range 12 {
		scopes[i] = fmt.Sprintf("site%d", i)
	}
	for pool, want := range scopes {
		if got := poolScope(pool); got != want {
			t.Fatalf("pool %d: scope %q, want %q", pool, got, want)
		}
	}
	for _, k := range kinds {
		for _, scope := range scopes {
			for tuple := range 10050 {
				if got, want := k.mk(scope, tuple), k.ref(scope, tuple); !slices.Equal(got, want) {
					t.Fatalf("%s %s tuple %d = %q, want %q", k.name, scope, tuple, got, want)
				}
			}
		}
	}
}

// TestPopulateJoinsEachRow holds Populate's interned keys to the plain
// join: every store's records are JoinKey of its rows with their measures,
// in order, for every kind, and rows whose Coords share no array (each
// copied) populate identical records.
func TestPopulateJoinsEachRow(t *testing.T) {
	top, _ := wan.NewTopology([]string{"a", "b", "c"}, []float64{1, 1, 1}, []float64{1, 1, 1})
	for _, kind := range Kinds() {
		cfg := smallConfig()
		cfg.LocalityAware = kind == TPCDS
		w, err := Generate(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		populate := func(w *Workload) *engine.Cluster {
			c, _ := engine.NewCluster(top, 1, 2, 100)
			if err := w.Populate(c); err != nil {
				t.Fatal(err)
			}
			return c
		}
		shared := populate(w)
		unshared := *w
		unshared.Datasets = nil
		for _, ds := range w.Datasets {
			copied := *ds
			copied.Rows = make([][]olap.Row, len(ds.Rows))
			for i, rows := range ds.Rows {
				for _, row := range rows {
					copied.Rows[i] = append(copied.Rows[i], olap.Row{Coords: slices.Clone(row.Coords), Measure: row.Measure})
				}
			}
			unshared.Datasets = append(unshared.Datasets, &copied)
		}
		fresh := populate(&unshared)
		for _, ds := range w.Datasets {
			for i, rows := range ds.Rows {
				got := shared.Data[i].Records(ds.Name)
				if len(got) != len(rows) {
					t.Fatalf("%v %s site %d: %d records for %d rows", kind, ds.Name, i, len(got), len(rows))
				}
				for r, row := range rows {
					if want := (engine.KV{Key: JoinKey(row.Coords), Val: row.Measure}); got[r] != want {
						t.Fatalf("%v %s site %d record %d = %+v, want %+v", kind, ds.Name, i, r, got[r], want)
					}
				}
				if !slices.Equal(got, fresh.Data[i].Records(ds.Name)) {
					t.Fatalf("%v %s site %d: rows with unshared coords populate other records", kind, ds.Name, i)
				}
			}
		}
	}
}

func TestPopulatedQueriesRun(t *testing.T) {
	for _, kind := range Kinds() {
		cfg := smallConfig()
		cfg.Datasets = 1
		w, err := Generate(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		top, _ := wan.NewTopology([]string{"a", "b", "c"}, []float64{5, 20, 40}, []float64{5, 20, 40})
		c, _ := engine.NewCluster(top, 1, 2, 100)
		if err := w.Populate(c); err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Datasets[0].Queries {
			res, err := c.Run(context.Background(), engine.JobConfig{Query: q.Query})
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, q.Query.Name, err)
			}
			if len(res.Output()) == 0 {
				t.Fatalf("%v/%s produced no output", kind, q.Query.Name)
			}
			if res.QCT <= 0 {
				t.Fatalf("%v/%s QCT = %v", kind, q.Query.Name, res.QCT)
			}
		}
	}
}

// TestViewOf: a View resolved from dimension names projects schema-shaped
// keys onto them in the order named and leaves keys of another width alone.
func TestViewOf(t *testing.T) {
	schema := olap.MustSchema("a", "b", "c")
	view, err := ViewOf(schema, []string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if view != engine.NewView(3, 2, 0) {
		t.Fatalf("view = %v", view)
	}
	key := JoinKey([]string{"x", "y", "z"})
	if got := view.Key(key); got != JoinKey([]string{"z", "x"}) {
		t.Fatalf("projected = %q", got)
	}
	if got := view.Key("just-one-part"); got != "just-one-part" {
		t.Fatalf("foreign key mangled: %q", got)
	}
	if _, err := ViewOf(schema, []string{"zzz"}); err == nil {
		t.Fatal("unknown dim should error")
	}
}

func TestJoinSplitKeyRoundTrip(t *testing.T) {
	coords := []string{"a", "b:1", "c/2"}
	if got := SplitKey(JoinKey(coords)); strings.Join(got, "|") != "a|b:1|c/2" {
		t.Fatalf("round trip = %v", got)
	}
}

func TestAffinityGroupsCreateAsymmetricSimilarity(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 6
	cfg.AffinityGroups = 3 // groups: {0,3}, {1,4}, {2,5}
	cfg.RowsPerSite = 1200
	cfg.LocalityAware = true
	w, err := Generate(BigDataScan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Datasets[0]
	keys := func(site int) []string {
		var out []string
		for _, r := range ds.Rows[site] {
			out = append(out, JoinKey(r.Coords))
		}
		return out
	}
	sameGroup := similarity.ExactJaccard(keys(0), keys(3))
	crossGroup := similarity.ExactJaccard(keys(0), keys(1))
	if sameGroup <= crossGroup {
		t.Fatalf("same-group similarity %v should exceed cross-group %v", sameGroup, crossGroup)
	}
}

func TestAffinityGroupsValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.AffinityGroups = -1
	if _, err := Generate(BigDataScan, cfg); err == nil {
		t.Fatal("negative affinity groups should error")
	}
	// Zero groups is the ungrouped generator.
	cfg.AffinityGroups = 0
	if _, err := Generate(BigDataScan, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadValidateNames: every generated workload validates, and one
// in which a dataset name or — within a dataset — a query name no longer
// identifies one thing does not (the planner's replay memo keys on query
// names, a site's stores on dataset names).
func TestWorkloadValidateNames(t *testing.T) {
	for _, kind := range Kinds() {
		w, err := Generate(kind, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%v: generated workload invalid: %v", kind, err)
		}
		ds := w.Datasets[0]
		saved := ds.Queries[1].Query.Name
		ds.Queries[1].Query.Name = ds.Queries[0].Query.Name
		if err := w.Validate(); err == nil {
			t.Fatalf("%v: two query specs of one name accepted", kind)
		}
		ds.Queries[1].Query.Name = saved
		// The same query name in two datasets is fine.
		w.Datasets[1].Queries[0].Query.Name = ds.Queries[0].Query.Name
		if err := w.Validate(); err != nil {
			t.Fatalf("%v: a query name shared across datasets rejected: %v", kind, err)
		}
		w.Datasets[1].Name = ds.Name
		if err := w.Validate(); err == nil {
			t.Fatalf("%v: two datasets of one name accepted", kind)
		}
	}
}

// TestQueriesReadOnlyTheirDims pins the query-type contract QuerySpec.Dims
// states, which the planner's volume profile counts by: for every kind and
// every query, dominant or not, all records that agree on the query's Dims
// emit the same set of keys, and the spec's View projects onto Dims.
func TestQueriesReadOnlyTheirDims(t *testing.T) {
	for _, kind := range Kinds() {
		w, err := Generate(kind, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range w.Datasets {
			for _, spec := range ds.Queries {
				byCell := map[string]string{}
				for _, rows := range ds.Rows {
					for _, row := range rows {
						key := JoinKey(row.Coords)
						var emitted []string
						spec.Query.Map(engine.KV{Key: key, Val: row.Measure}, func(k string, _ float64) {
							emitted = append(emitted, k)
						})
						slices.Sort(emitted)
						set := strings.Join(slices.Compact(emitted), "\n")
						coords := make([]string, len(spec.Dims))
						for i, d := range spec.Dims {
							coords[i] = row.Coords[ds.Schema.Index(d)]
						}
						cell := JoinKey(coords)
						if got := spec.View.Key(key); got != cell {
							t.Fatalf("%v %s: View projects %q to %q, Dims to %q", kind, spec.Query.Name, key, got, cell)
						}
						if seen, ok := byCell[cell]; !ok {
							byCell[cell] = set
						} else if seen != set {
							t.Fatalf("%v %s: records of cell %q emit %q and %q", kind, spec.Query.Name, cell, seen, set)
						}
					}
				}
				if len(byCell) == 0 {
					t.Fatalf("%v %s: no records", kind, spec.Query.Name)
				}
			}
		}
	}
}
