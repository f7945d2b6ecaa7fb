package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bohr/internal/durable"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/window"
	"bohr/internal/stats"
)

// post builds a POST of body to path for Server.Handler(). It uses
// http.NewRequest: httptest.NewRequest allocates a 4 kB bufio.Reader per
// request, which would count against the server's bytes per op.
func post(b *testing.B, path string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	return req
}

// BenchmarkDurableIngestBatch is bench/'s ingest-durable op under `go
// test`, so the write path can be profiled (-cpuprofile, -memprofile)
// without editing bench/: the deployment bench/system.go builds (4 sites,
// 3 bigdata-scan datasets of 5,000 rows per site, Bohr placement, data seed
// 42), durable ingest on b.TempDir() with fsync on and a checkpoint every
// 16 batches, and per op one 256-record batch POSTed to /v1/ingest through
// Server.Handler(), delivered (Flush) and its checkpoint, if it cut one,
// waited for (DrainSnapshots). The stores grow with every op, so compare
// runs at one -benchtime=Nx.
func BenchmarkDurableIngestBatch(b *testing.B) {
	const batchRecords, snapshotEvery = 256, 16
	ctx := context.Background()
	s := experiments.QuickSetup()
	s.RowsPerSite, s.Seed = 5000, 42
	col, win := obs.NewCollector(obs.WithWallClock()), window.New(nil)
	col.SetSink(win)
	sys := prepareSystem(b, s, col)
	srv := New(NewEngineBackend(sys), Config{Windows: win}, col)
	man, err := durable.Open(durable.Config{Dir: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer man.Close()
	pipe, _, err := srv.EnableDurableIngest(ctx,
		ingest.Config{MaxBatchRecords: batchRecords, FlushInterval: -1, MaxPending: 4096, Seed: s.Seed}, man, snapshotEvery)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		pipe.Kill()
		srv.DrainSnapshots()
	}()
	handler := srv.Handler()

	// bench/'s makeBatch: coordinates of rows the datasets already hold,
	// spread over every dataset and site, one source, monotonic offsets.
	rng, offset := stats.NewRand(stats.Split(42, 4242)), uint64(1)
	dss, sites := sys.Workload.Datasets, sys.Cluster.N()
	recs := make([]ingest.Record, batchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			ds := dss[j%len(dss)]
			rows := ds.Rows[rng.Intn(len(ds.Rows))]
			recs[j] = ingest.Record{
				Source: "bench", Offset: offset, Dataset: ds.Name, Site: (j / len(dss)) % sites,
				Coords: rows[rng.Intn(len(rows))].Coords, Measure: 1 + rng.Float64()*9,
			}
			offset++
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, post(b, "/v1/ingest", ingest.EncodeBatch(recs)))
		if rec.Code != http.StatusOK {
			b.Fatalf("batch %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if err := pipe.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		srv.DrainSnapshots()
	}
	b.StopTimer()
	if got := pipe.Stats().RecordsDelivered; got != uint64(b.N*batchRecords) {
		b.Fatalf("%d records delivered, %d sent", got, b.N*batchRecords)
	}
}

// BenchmarkQueryIngestMixCycle is bench/'s query-ingest-mix op under `go
// test`, so writes beside reads can be profiled without editing bench/: the
// deployment above with durable ingest (fsync on, no checkpoints), the 12
// statements bench/mix.go sends (4 per dataset: a count, a top-n, a
// filtered two-field group and a filtered count per group) sent once to
// fill the cache, and per op one cycle — a 256-record batch to one dataset,
// POSTed, delivered and applied, then the 12 statements sent twice, which
// must be 4 misses (the written dataset's) and 20 hits.
func BenchmarkQueryIngestMixCycle(b *testing.B) {
	const batchRecords, missesPerCycle = 256, 4
	ctx := context.Background()
	s := experiments.QuickSetup()
	s.RowsPerSite, s.Seed = 5000, 42
	col, win := obs.NewCollector(obs.WithWallClock()), window.New(nil)
	col.SetSink(win)
	sys := prepareSystem(b, s, col)
	srv := New(NewEngineBackend(sys), Config{Windows: win}, col)
	man, err := durable.Open(durable.Config{Dir: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer man.Close()
	pipe, _, err := srv.EnableDurableIngest(ctx,
		ingest.Config{MaxBatchRecords: batchRecords, FlushInterval: -1, MaxPending: 4096, Seed: s.Seed}, man, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		pipe.Kill()
		srv.DrainSnapshots()
	}()
	handler := srv.Handler()
	countries := []string{"US", "JP", "DE", "BR", "IN", "AU", "GB", "KR", "SG", "IE"}
	dss, sites := sys.Workload.Datasets, sys.Cluster.N()
	rng := stats.NewRand(stats.Split(42, 99))
	var stmts []string
	for _, ds := range dss {
		stmts = append(stmts,
			fmt.Sprintf("SELECT COUNT(*) FROM %s", ds.Name),
			fmt.Sprintf("SELECT url, SUM(measure) FROM %s GROUP BY url ORDER BY value DESC LIMIT %d", ds.Name, 5+rng.Intn(20)),
			fmt.Sprintf("SELECT country, hour, SUM(measure) FROM %s WHERE country != '%s' GROUP BY country, hour", ds.Name, countries[rng.Intn(len(countries))]),
			fmt.Sprintf("SELECT country, COUNT(*) FROM %s WHERE hour != '%02d' GROUP BY country", ds.Name, rng.Intn(24)))
	}
	query := func(stmt string) (cached bool) {
		body, _ := json.Marshal(QueryRequest{Tenant: "bench", Query: stmt})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, post(b, "/v1/query", body))
		var resp QueryResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			b.Fatalf("%q: status %d: %s", stmt, rec.Code, rec.Body)
		}
		return resp.Cached
	}
	for _, st := range stmts {
		query(st)
	}
	// bench/'s makeBatch for one dataset: coordinates of rows it already
	// holds, one source, monotonic offsets.
	rng, offset := stats.NewRand(stats.Split(42, 4242)), uint64(1)
	recs := make([]ingest.Record, batchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := dss[i%len(dss)]
		for j := range recs {
			rows := ds.Rows[rng.Intn(len(ds.Rows))]
			recs[j] = ingest.Record{
				Source: "bench", Offset: offset, Dataset: ds.Name, Site: (j / len(dss)) % sites,
				Coords: rows[rng.Intn(len(rows))].Coords, Measure: 1 + rng.Float64()*9,
			}
			offset++
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, post(b, "/v1/ingest", ingest.EncodeBatch(recs)))
		if rec.Code != http.StatusOK {
			b.Fatalf("batch %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if err := pipe.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		srv.DrainSnapshots()
		hits := 0
		for range 2 {
			for _, st := range stmts {
				if query(st) {
					hits++
				}
			}
		}
		if misses := 2*len(stmts) - hits; misses != missesPerCycle {
			b.Fatalf("cycle %d: %d misses and %d hits, want %d and %d", i, misses, hits, missesPerCycle, 2*len(stmts)-missesPerCycle)
		}
	}
}

// BenchmarkQueryMissRefresh is bench/'s query-miss op under `go test`, so
// the uncached read path can be profiled without editing bench/: the same
// deployment as above with ingest off, and per op one dashboard refresh —
// the three missStatements shapes, texts nobody sent before — through
// Server.Handler().
func BenchmarkQueryMissRefresh(b *testing.B) {
	s := experiments.QuickSetup()
	s.RowsPerSite, s.Seed = 5000, 42
	col, win := obs.NewCollector(obs.WithWallClock()), window.New(nil)
	col.SetSink(win)
	sys := prepareSystem(b, s, col)
	handler := New(NewEngineBackend(sys), Config{Windows: win}, col).Handler()
	dss := sys.Workload.Datasets
	nonce := 0
	refresh := func(i int) {
		nonce++
		for _, st := range missStatements(dss[i%len(dss)].Name, nonce) {
			body, _ := json.Marshal(QueryRequest{Tenant: "bench", Query: st.text})
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, post(b, "/v1/query", body))
			if rec.Code != http.StatusOK {
				b.Fatalf("refresh %d: %q: status %d: %s", i, st.text, rec.Code, rec.Body)
			}
		}
	}
	for i := 0; i < len(dss); i++ {
		refresh(i) // every dataset's layouts and columns exist
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh(i)
	}
}
