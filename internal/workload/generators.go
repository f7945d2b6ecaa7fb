package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/stats"
)

// tuplePool is a set of complete coordinate tuples rows draw from. Keys
// drawn from the shared pool exist at many sites (cross-site similarity);
// keys from a site pool are mostly local (self-similarity through
// duplication).
type tuplePool struct {
	tuples [][]string
	zipf   *rand.Zipf
}

func newTuplePool(rng *rand.Rand, tuples [][]string, skew float64) *tuplePool {
	if skew <= 1 {
		skew = 1.0001
	}
	return &tuplePool{
		tuples: tuples,
		zipf:   rand.NewZipf(rng, skew, 1, uint64(len(tuples)-1)),
	}
}

func (p *tuplePool) draw() []string { return p.tuples[p.zipf.Uint64()] }

// rowSource generates rows for one dataset: a global pool, optional
// per-affinity-group pools, and one pool per site.
type rowSource struct {
	rng    *rand.Rand
	cfg    Config
	shared *tuplePool
	groups []*tuplePool
	local  []*tuplePool
}

// newRowSource builds pools using mk to synthesize tuple t of pool p.
// Pool ids: -1 is the global pool, -(2+g) is affinity group g, and a
// non-negative id is the site-local pool.
func newRowSource(rng *rand.Rand, cfg Config, mk func(pool, t int) []string) *rowSource {
	mkPool := func(pool int) *tuplePool {
		tuples := make([][]string, cfg.KeysPerPool)
		for t := range tuples {
			tuples[t] = mk(pool, t)
		}
		return newTuplePool(rng, tuples, cfg.KeySkew)
	}
	src := &rowSource{rng: rng, cfg: cfg, shared: mkPool(-1)}
	for g := 0; g < cfg.AffinityGroups; g++ {
		src.groups = append(src.groups, mkPool(-(2 + g)))
	}
	for i := 0; i < cfg.Sites; i++ {
		src.local = append(src.local, mkPool(i))
	}
	return src
}

// groupOf returns the affinity group of a site (-1 without grouping).
func (s *rowSource) groupOf(site int) int {
	if len(s.groups) == 0 {
		return -1
	}
	return site % len(s.groups)
}

// generateRows fills per-site row slices: each site "produces"
// RowsPerSite rows; locality-aware placement stores them where produced,
// random placement scatters them uniformly. The Overlap fraction of rows
// carries cross-site similarity, split between the global pool (similar
// everywhere) and the site's affinity-group pool (similar within the
// group only) when grouping is on.
func (s *rowSource) generateRows(measure func() float64) [][]olap.Row {
	rows := make([][]olap.Row, s.cfg.Sites)
	for site := 0; site < s.cfg.Sites; site++ {
		g := s.groupOf(site)
		for r := 0; r < s.cfg.RowsPerSite; r++ {
			var coords []string
			if s.rng.Float64() < s.cfg.Overlap {
				if g >= 0 && s.rng.Float64() < 0.5 {
					coords = s.groups[g].draw()
				} else {
					coords = s.shared.draw()
				}
			} else {
				coords = s.local[site].draw()
			}
			target := site
			if !s.cfg.LocalityAware {
				target = s.rng.Intn(s.cfg.Sites)
			}
			rows[target] = append(rows[target], olap.Row{Coords: coords, Measure: measure()})
		}
	}
	return rows
}

// queryCounts splits a dataset's total recurring query count (uniform in
// [QueriesMin, QueriesMax]) across its query types, giving the dominant
// type the biggest share.
func queryCounts(rng *rand.Rand, cfg Config, types int) []int {
	total := cfg.QueriesMin
	if cfg.QueriesMax > cfg.QueriesMin {
		total += rng.Intn(cfg.QueriesMax - cfg.QueriesMin + 1)
	}
	counts := make([]int, types)
	// Every type gets ≥1 query when the budget allows; the remainder goes
	// to the first (dominant) type.
	for i := range counts {
		if total > 0 {
			counts[i] = 1
			total--
		}
	}
	counts[0] += total
	return counts
}

// projectedQuery builds a query type whose map projects the stored
// full-coordinate key down to its dimension set, and then combines. It stays
// a MapFn rather than a Select, which would build key columns at every site
// it scans (DESIGN.md §14).
func projectedQuery(name, dataset string, schema *olap.Schema, dims []string, op engine.CombineOp, mapCost, reduceCost float64) (QuerySpec, error) {
	view, err := ViewOf(schema, dims)
	return QuerySpec{Dims: dims, View: view, Query: engine.Query{
		Name:      name,
		Dataset:   dataset,
		QueryType: string(olap.QueryTypeFor(dims)),
		Map:       view.Map(),
		Combine:   op,
		MapCost:   mapCost, ReduceCost: reduceCost,
	}}, err
}

// udfQuery builds the AMPLab UDF: projection to the page URL followed by a
// simplified PageRank scatter, iterated.
func udfQuery(name, dataset string, schema *olap.Schema, dims []string, iterations int) (QuerySpec, error) {
	view, err := ViewOf(schema, dims)
	return QuerySpec{Dims: dims, View: view, Query: engine.Query{
		Name:      name,
		Dataset:   dataset,
		QueryType: string(olap.QueryTypeFor(dims)),
		Map: func(r engine.KV, emit func(string, float64)) {
			k := view.Key(r.Key)
			emit(k, 0.15+0.85*r.Val*0.5)
			emit(linkTarget(k), 0.85*r.Val*0.5)
		},
		Combine:    engine.OpSum,
		Iterations: iterations,
		MapCost:    engine.DefaultMapCost * 1.2,
		ReduceCost: engine.DefaultReduceCost * 1.5,
	}}, err
}

// poolScope names a pool for key synthesis: the global pool, an affinity
// group, or a site-local pool.
func poolScope(pool int) string {
	switch {
	case pool == -1:
		return "shared"
	case pool < -1:
		return fmt.Sprintf("group%d", -(pool + 2))
	default:
		return fmt.Sprintf("site%d", pool)
	}
}

// linkTarget deterministically maps a page to a page it links to, within a
// closed ring so PageRank rounds stay well-defined and identical pages at
// different sites scatter to identical targets.
func linkTarget(key string) string {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return linkTargets()[h%4096]
}

// linkTargets names the ring's pages, formatted once instead of per call.
var linkTargets = sync.OnceValue(func() []string {
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("link-%d", i)
	}
	return names
})

// generateAMPLab builds one AMPLab big-data-benchmark dataset: the
// rankings/uservisits schema reduced to (url, country, hour) with a page
// score measure. The workload kind decides the dominant query type.
func generateAMPLab(kind Kind, cfg Config, idx int, seed int64) (*Dataset, error) {
	rng := stats.NewRand(seed)
	schema := olap.MustSchema("url", "country", "hour")
	name := fmt.Sprintf("amplab-%03d", idx)
	countries := []string{"US", "JP", "DE", "BR", "IN", "AU", "GB", "KR", "SG", "IE"}

	mk := func(pool, t int) []string {
		scope := poolScope(pool)
		return []string{
			fmt.Sprintf("%s.u%04d.example.com/page%d", scope, t, t%97),
			countries[t%len(countries)],
			fmt.Sprintf("%02d", t%24),
		}
	}
	src := newRowSource(rng, cfg, mk)
	rows := src.generateRows(func() float64 { return 1 + rng.Float64()*9 })

	scan, err := projectedQuery(name+"/scan", name, schema, []string{"url"},
		engine.OpSum, engine.DefaultMapCost, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	udf, err := udfQuery(name+"/udf", name, schema, []string{"url"}, 2)
	if err != nil {
		return nil, err
	}
	aggr, err := projectedQuery(name+"/aggr", name, schema, []string{"country", "hour"},
		engine.OpSum, engine.DefaultMapCost*1.5, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}

	var specs []QuerySpec
	switch kind {
	case BigDataScan:
		specs = []QuerySpec{scan, aggr}
	case BigDataUDF:
		specs = []QuerySpec{udf, aggr}
	case BigDataAggr:
		specs = []QuerySpec{aggr, scan}
	default:
		return nil, fmt.Errorf("workload: %v is not an AMPLab kind", kind)
	}
	counts := queryCounts(rng, cfg, len(specs))
	for i := range specs {
		specs[i].Count = counts[i]
	}
	return &Dataset{Name: name, Schema: schema, Rows: rows, Queries: specs}, nil
}

// generateTPCDS builds one TPC-DS-flavoured dataset: a store_sales fact
// slice over (item, store, date, region) with a sales-amount measure, and
// the OLAP aggregation mix the benchmark's reporting queries perform.
func generateTPCDS(cfg Config, idx int, seed int64) (*Dataset, error) {
	rng := stats.NewRand(seed)
	schema := olap.MustSchema("item", "store", "date", "region")
	name := fmt.Sprintf("tpcds-%03d", idx)
	regions := []string{"AMER", "EMEA", "APAC", "LATAM"}

	mk := func(pool, t int) []string {
		scope := poolScope(pool)
		return []string{
			fmt.Sprintf("item-%s-%04d", scope, t),
			fmt.Sprintf("store-%03d", t%50),
			fmt.Sprintf("2018-%02d-%02d", t%12+1, t%28+1),
			regions[t%len(regions)],
		}
	}
	src := newRowSource(rng, cfg, mk)
	rows := src.generateRows(func() float64 { return 5 + rng.Float64()*195 })

	byItem, err := projectedQuery(name+"/sales-by-item", name, schema, []string{"item"},
		engine.OpSum, engine.DefaultMapCost*1.5, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	byStoreDate, err := projectedQuery(name+"/sales-by-store-date", name, schema, []string{"store", "date"},
		engine.OpSum, engine.DefaultMapCost*1.5, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	byRegion, err := projectedQuery(name+"/sales-by-region", name, schema, []string{"region"},
		engine.OpSum, engine.DefaultMapCost, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	specs := []QuerySpec{byItem, byStoreDate, byRegion}
	counts := queryCounts(rng, cfg, len(specs))
	for i := range specs {
		specs[i].Count = counts[i]
	}
	return &Dataset{Name: name, Schema: schema, Rows: rows, Queries: specs}, nil
}

// generateFacebook builds one Facebook-trace-flavoured dataset: job log
// records over (jobclass, user, hour) with run-duration measures and the
// heavy-tailed job mix of the 2010 Hadoop trace (most jobs tiny, a long
// tail of large ones).
func generateFacebook(cfg Config, idx int, seed int64) (*Dataset, error) {
	rng := stats.NewRand(seed)
	schema := olap.MustSchema("jobclass", "user", "hour")
	name := fmt.Sprintf("facebook-%03d", idx)

	mk := func(pool, t int) []string {
		scope := poolScope(pool)
		return []string{
			fmt.Sprintf("class-%s-%03d", scope, t%120),
			fmt.Sprintf("user-%s-%04d", scope, t),
			fmt.Sprintf("%02d", t%24),
		}
	}
	src := newRowSource(rng, cfg, mk)
	// Heavy-tailed durations: mostly seconds, occasionally hours.
	rows := src.generateRows(func() float64 {
		d := rng.ExpFloat64() * 30
		if rng.Float64() < 0.05 {
			d *= 50
		}
		return d
	})

	jobsByClass, err := projectedQuery(name+"/jobs-by-class", name, schema, []string{"jobclass"},
		engine.OpCount, engine.DefaultMapCost, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	timeByUser, err := projectedQuery(name+"/time-by-user", name, schema, []string{"user"},
		engine.OpSum, engine.DefaultMapCost, engine.DefaultReduceCost)
	if err != nil {
		return nil, err
	}
	specs := []QuerySpec{jobsByClass, timeByUser}
	counts := queryCounts(rng, cfg, len(specs))
	for i := range specs {
		specs[i].Count = counts[i]
	}
	return &Dataset{Name: name, Schema: schema, Rows: rows, Queries: specs}, nil
}
