package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
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
// per-affinity-group pools, and one pool per site. Every row drawn from a
// pool tuple shares that tuple's Coords slice; Populate joins each tuple's
// key once by that identity, so a generator that copied Coords per row
// would make it slower, not wrong.
type rowSource struct {
	rng    *rand.Rand
	cfg    Config
	shared *tuplePool
	groups []*tuplePool
	local  []*tuplePool
}

// newRowSource builds pools using mk to synthesize tuple t of the pool
// named scope (poolScope). Pool ids: -1 is the global pool, -(2+g) is
// affinity group g, and a non-negative id is the site-local pool.
func newRowSource(rng *rand.Rand, cfg Config, mk func(scope string, t int) []string) *rowSource {
	mkPool := func(pool int) *tuplePool {
		scope := poolScope(pool)
		tuples := make([][]string, cfg.KeysPerPool)
		for t := range tuples {
			tuples[t] = mk(scope, t)
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
// group only) when grouping is on. Each site's slice is sized once: for
// RowsPerSite, plus under random placement four standard deviations of
// the binomial count it scatters to a site, which an append may still
// overshoot.
func (s *rowSource) generateRows(measure func() float64) [][]olap.Row {
	size := s.cfg.RowsPerSite
	if !s.cfg.LocalityAware {
		size += int(4 * math.Sqrt(float64(size)))
	}
	rows := make([][]olap.Row, s.cfg.Sites)
	for site := range rows {
		rows[site] = make([]olap.Row, 0, size)
	}
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
// it scans (DESIGN.md §8).
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

// padded appends n ≥ 0 in decimal, zero-padded to width: fmt's %0*d.
func padded(b []byte, n, width int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(n), 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

// scoped is prefix, scope, '-' and n zero-padded to width.
func scoped(prefix, scope string, n, width int) string {
	var b [64]byte
	return string(padded(append(append(append(b[:0], prefix...), scope...), '-'), n, width))
}

// table returns f(0) … f(n-1), formatted on first use.
func table(n int, f func(i int) string) func() []string {
	return sync.OnceValue(func() []string {
		out := make([]string, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	})
}

// The coordinates and page names that depend on t alone, formatted once:
// a date's (month, day) pair repeats every 84 tuples.
var (
	hours       = table(24, func(h int) string { return fmt.Sprintf("%02d", h) })
	stores      = table(50, func(s int) string { return fmt.Sprintf("store-%03d", s) })
	dates       = table(84, func(d int) string { return fmt.Sprintf("2018-%02d-%02d", d%12+1, d%28+1) })
	linkTargets = table(4096, func(i int) string { return fmt.Sprintf("link-%d", i) })
)

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

var (
	countries = []string{"US", "JP", "DE", "BR", "IN", "AU", "GB", "KR", "SG", "IE"}
	regions   = []string{"AMER", "EMEA", "APAC", "LATAM"}
)

// amplabTuple is tuple t of a pool's (url, country, hour) coordinates.
func amplabTuple(scope string, t int) []string {
	var b [64]byte
	url := append(padded(append(append(b[:0], scope...), ".u"...), t, 4), ".example.com/page"...)
	return []string{
		string(strconv.AppendInt(url, int64(t%97), 10)),
		countries[t%len(countries)],
		hours()[t%24],
	}
}

// tpcdsTuple is tuple t of a pool's (item, store, date, region) coordinates.
func tpcdsTuple(scope string, t int) []string {
	return []string{
		scoped("item-", scope, t, 4),
		stores()[t%50],
		dates()[t%84],
		regions[t%len(regions)],
	}
}

// facebookTuple is tuple t of a pool's (jobclass, user, hour) coordinates.
func facebookTuple(scope string, t int) []string {
	return []string{
		scoped("class-", scope, t%120, 3),
		scoped("user-", scope, t, 4),
		hours()[t%24],
	}
}

// generateAMPLab builds one AMPLab big-data-benchmark dataset: the
// rankings/uservisits schema reduced to (url, country, hour) with a page
// score measure. The workload kind decides the dominant query type.
func generateAMPLab(kind Kind, cfg Config, idx int, seed int64) (*Dataset, error) {
	rng := stats.NewRand(seed)
	schema := olap.MustSchema("url", "country", "hour")
	name := fmt.Sprintf("amplab-%03d", idx)
	src := newRowSource(rng, cfg, amplabTuple)
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
	src := newRowSource(rng, cfg, tpcdsTuple)
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
	src := newRowSource(rng, cfg, facebookTuple)
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
