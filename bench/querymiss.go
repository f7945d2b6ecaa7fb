package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bohr/internal/cache"
	"bohr/internal/engine"
	"bohr/internal/serve"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// queryMissWorkload is the uncached /v1/query path. One op is one
// dashboard refresh: three statements nobody has sent before, one of each
// shape, on one dataset. Every round starts with an empty result cache
// and its 300 statements stay far below the 4,096-entry cap, so the cache
// is filled but never hits and never evicts.
var queryMissWorkload = workloadSpec{
	name:   "query-miss",
	opUnit: "dashboard-refresh",
	warm:   10,
	ops:    90,
	setup: func(seed int64, warm int) (instance, error) {
		v, err := newServeSystem(seed, -1)
		if err != nil {
			return nil, err
		}
		q := &queryMissInstance{v: v, rng: stats.NewRand(stats.Split(seed, 77))}
		for i := 0; i < warm; i++ {
			if !q.op(i, nil) {
				return nil, fmt.Errorf("warm-up op %d failed", i)
			}
		}
		return q, nil
	},
}

// oracleEvery is how often a statement's rows are checked against a naive
// fold over the stored records.
const oracleEvery = 50

var queryShapes = []string{"scan", "aggr", "count"}

var countries = []string{"US", "JP", "DE", "BR", "IN", "AU", "GB", "KR", "SG", "IE"}

// statement is one generated query with what the oracle needs to
// recompute it.
type statement struct {
	shape   string
	dataset string
	text    string
	// filter is the excluded country (scan, aggr) or hour (count).
	filter string
	limit  int
}

type queryMissInstance struct {
	v   *serveSystem
	rng *rand.Rand
	// nonce makes every statement of the system's life distinct.
	nonce int
	// Counts for the traced phase.
	stmts, rows, scanned int
}

// newStatement draws a statement of the given shape. The seed-derived
// filter removes about a tenth (scan, aggr) or a twenty-fourth (count) of
// the rows; the nonce conjunct is always true and only makes the text
// new, so the cost of a shape does not depend on the draw.
func (q *queryMissInstance) newStatement(shape, dataset string) statement {
	q.nonce++
	st := statement{shape: shape, dataset: dataset}
	switch shape {
	case "scan":
		st.filter = countries[q.rng.Intn(len(countries))]
		st.limit = 5 + q.rng.Intn(20)
		st.text = fmt.Sprintf("SELECT url, SUM(measure) FROM %s WHERE country != '%s' AND hour != 'n%d' GROUP BY url ORDER BY value DESC LIMIT %d",
			dataset, st.filter, q.nonce, st.limit)
	case "aggr":
		st.filter = countries[q.rng.Intn(len(countries))]
		st.text = fmt.Sprintf("SELECT country, hour, SUM(measure) FROM %s WHERE country != '%s' AND url != 'n%d' GROUP BY country, hour",
			dataset, st.filter, q.nonce)
	case "count":
		st.filter = fmt.Sprintf("%02d", q.rng.Intn(24))
		st.text = fmt.Sprintf("SELECT country, COUNT(*) FROM %s WHERE hour != '%s' AND url != 'n%d' GROUP BY country",
			dataset, st.filter, q.nonce)
	}
	return st
}

func (q *queryMissInstance) op(i int, tr *tracer) bool {
	dss := q.v.sys.Workload.Datasets
	ds := dss[i%len(dss)]
	q.v.backend.tr = tr
	ok := true
	for _, shape := range queryShapes {
		st := q.newStatement(shape, ds.Name)
		if tr != nil {
			// The handler parses and compiles inside its own span; the same
			// two calls on the same text, in a span here, say what they cost.
			id := tr.push("sql.parse_compile")
			parsed, err := sql.Parse(st.text)
			if err == nil {
				_, err = sql.Compile(parsed, ds.Schema)
			}
			tr.pop(id)
			if err != nil {
				fmt.Printf("query-miss: %q: %v\n", st.text, err)
				ok = false
			}
		}
		id := tr.push("serve.query." + shape)
		resp, err := q.v.query(st.text)
		tr.pop(id)
		switch {
		case err != nil:
			fmt.Printf("query-miss: %q: %v\n", st.text, err)
			ok = false
		case resp.Cached:
			fmt.Printf("query-miss: %q answered from the cache\n", st.text)
			ok = false
		case resp.RowCount == 0 || resp.RowCount != len(resp.Rows):
			fmt.Printf("query-miss: %q returned %d rows (row_count %d)\n", st.text, len(resp.Rows), resp.RowCount)
			ok = false
		case q.nonce%oracleEvery == 0:
			if err := checkRows(st, resp.Rows, q.v.sys.Cluster); err != nil {
				fmt.Printf("query-miss: %q: %v\n", st.text, err)
				ok = false
			}
		}
		q.stmts++
		q.rows += resp.RowCount
		q.scanned += q.v.stored(ds.Name)
	}
	return ok
}

// naiveFold recomputes a statement's groups straight from the records
// every site stores, sharing nothing with the engine or the SQL compiler.
func naiveFold(st statement, c *engine.Cluster) map[string]float64 {
	out := map[string]float64{}
	for site := 0; site < c.N(); site++ {
		for _, kv := range c.Data[site].Records(st.dataset) {
			co := workload.SplitKey(kv.Key) // url, country, hour
			switch st.shape {
			case "scan":
				if co[1] != st.filter {
					out[co[0]] += kv.Val
				}
			case "aggr":
				if co[1] != st.filter {
					out[workload.JoinKey(co[1:3])] += kv.Val
				}
			case "count":
				if co[2] != st.filter {
					out[co[1]]++
				}
			}
		}
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// checkRows compares a reply with the naive fold: every returned group
// has the naive value, the count of rows is right, and under ORDER BY
// value DESC LIMIT n the rows are the n largest in order. Sums are
// compared to 1e-9 because the engine adds per site first.
func checkRows(st statement, rows []serve.QueryRow, c *engine.Cluster) error {
	want := naiveFold(st, c)
	wantRows := len(want)
	if st.limit > 0 && st.limit < wantRows {
		wantRows = st.limit
	}
	if len(rows) != wantRows {
		return fmt.Errorf("oracle: %d rows, naive fold has %d", len(rows), wantRows)
	}
	for _, r := range rows {
		v, ok := want[r.Key]
		if !ok || !near(v, r.Val) {
			return fmt.Errorf("oracle: group %q = %v, naive fold has %v (present %v)",
				strings.ReplaceAll(r.Key, "\x1f", ","), r.Val, v, ok)
		}
	}
	if st.limit == 0 {
		return nil
	}
	vals := make([]float64, 0, len(want))
	for _, v := range want {
		vals = append(vals, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for i, r := range rows {
		if !near(r.Val, vals[i]) {
			return fmt.Errorf("oracle: row %d has value %v, the %d-th largest is %v", i, r.Val, i+1, vals[i])
		}
	}
	return nil
}

func (q *queryMissInstance) finish(recover bool) error { return nil }

func (q *queryMissInstance) close() { q.v.close() }

func (q *queryMissInstance) layers(n int, tr *tracer, out map[string]float64) error {
	m := tr.byName()
	var handlerSelf int64
	handlers := 0
	for _, shape := range queryShapes {
		name := "serve.query." + shape
		out["query.shape_ms."+shape] = meanMS(m, name)
		if st := m[name]; st != nil {
			handlerSelf += st.self
			handlers += st.n
		}
	}
	if handlers > 0 {
		out["serve.overhead_us"] = float64(handlerSelf) / float64(handlers) / 1e3
	}
	out["sql.parse_compile_us"] = meanMS(m, "sql.parse_compile") * 1e3
	out["engine.query_ms"] = meanMS(m, "engine.query")
	out["serve.content_hash_ms"] = perOpMS(m, "serve.content_hash", n)
	if q.stmts > 0 {
		out["engine.records_scanned"] = float64(q.scanned) / float64(q.stmts)
		out["serve.rows_returned"] = float64(q.rows) / float64(q.stmts)
	}
	out["serve.cache_insert_at_cap_us"] = cacheInsertAtCapUS()
	return nil
}

// cacheInsertAtCapUS fills a result cache to its default entry cap and
// times inserts past it, each of which evicts.
func cacheInsertAtCapUS() float64 {
	caps := cache.DefaultCaps()
	if caps.Entries <= 0 {
		return 0 // unbounded: nothing to evict
	}
	rc := serve.NewResultCache(caps, nil)
	rows := []engine.KV{{Key: "k", Val: 1}}
	for i := 0; i < caps.Entries; i++ {
		rc.Insert(fmt.Sprintf("fill-%d", i), "probe", rows)
	}
	const inserts = 200
	t0 := time.Now()
	for i := 0; i < inserts; i++ {
		rc.Insert(fmt.Sprintf("over-%d", i), "probe", rows)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / inserts
}
