package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/sql"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// BenchmarkScanSelect sizes the coded scan on one serve-shaped site (5,000
// bigdata-scan records: url × country × hour) under the three statement
// shapes bench/querymiss.go sends, per record scanned:
//
//	ref-closure  the statements as MapFns (split the key, compare the WHERE
//	             fields as strings, fold by the key View.Key projects)
//	coded/scan, coded/aggr, coded/count
//	             each statement as a Select over the site's kept columns
//	encode       what the first statement after a write pays once on top:
//	             splitting the keys of a never-encoded site (new dictionaries,
//	             the worst case) and counting them
//	encode-after-batch
//	             the same after an ingest batch appended 256 records to the
//	             site: its key columns carry across the write, so the build
//	             copies the site's codes and encodes the batch's keys alone
func BenchmarkScanSelect(b *testing.B) {
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool, cfg.Seed = 1, 1, 5000, 100, 42
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := w.Datasets[0]
	recs := siteRecords(ds, 0)
	st := engine.Stage{Exec: engine.Executors{Machines: 2, PerMachine: 2}}
	var coded, closure []engine.Query
	for _, text := range []string{
		"SELECT url, SUM(measure) FROM %s WHERE country != 'JP' AND hour != 'n7' GROUP BY url ORDER BY value DESC LIMIT 9",
		"SELECT country, hour, SUM(measure) FROM %s WHERE country != 'US' AND url != 'n3' GROUP BY country, hour",
		"SELECT country, COUNT(*) FROM %s WHERE hour != '07' AND url != 'n5' GROUP BY country",
	} {
		plan, err := sql.CompileString(fmt.Sprintf(text, ds.Name), ds.Schema)
		if err != nil {
			b.Fatal(err)
		}
		sel := plan.Query.Select
		ref := plan.Query
		ref.Select = nil
		ref.Map = func(r engine.KV, emit func(string, float64)) {
			fields := strings.Split(r.Key, engine.KeySep)
			if len(fields) != sel.View.Width() {
				return
			}
			for _, c := range sel.Where {
				if !c.Pass(fields[c.Field]) {
					return
				}
			}
			emit(sel.View.Key(r.Key), r.Val)
		}
		coded, closure = append(coded, plan.Query), append(closure, ref)
	}
	layout, err := engine.NewLayout(recs, st)
	if err != nil {
		b.Fatal(err)
	}
	for i := range coded {
		if !sameStage(layout.Scan(&coded[i]), layout.Scan(&closure[i])) {
			b.Fatalf("statement %d: the closure and the Select scan differently", i)
		}
	}
	perRecord := func(b *testing.B, scans int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*scans*len(recs)), "ns/record")
	}
	b.Run("ref-closure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range closure {
				layout.Scan(&closure[k])
			}
		}
		perRecord(b, len(closure))
	})
	b.Run("coded", func(b *testing.B) {
		for k, shape := range []string{"scan", "aggr", "count"} {
			b.Run(shape, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layout.Scan(&coded[k])
				}
				perRecord(b, 1)
			})
		}
	})
	count, err := sql.CompileString("SELECT COUNT(*) FROM "+ds.Name, ds.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, err := engine.NewLayout(recs, st)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			fresh.Scan(&count.Query)
		}
		perRecord(b, 1)
	})
	b.Run("encode-after-batch", func(b *testing.B) {
		top, err := wan.NewTopology([]string{"site"}, []float64{10}, []float64{10})
		if err != nil {
			b.Fatal(err)
		}
		c, err := engine.NewCluster(top, st.Exec.Machines, st.Exec.PerMachine, 100)
		if err != nil {
			b.Fatal(err)
		}
		c.Data[0].Add(ds.Name, recs...)
		layoutOf := func(c *engine.Cluster) *engine.Layout {
			l, _, err := c.Data[0].Store(ds.Name).Layout(st)
			if err != nil {
				b.Fatal(err)
			}
			return l
		}
		layoutOf(c).Scan(&count.Query) // the site as the last statement left it
		batch := recs[len(recs)-256:]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			next := c.Clone()
			next.Data[0].Add(ds.Name, batch...)
			l := layoutOf(next)
			b.StartTimer()
			l.Scan(&count.Query)
		}
		perRecord(b, 1)
	})
}
