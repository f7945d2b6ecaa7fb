package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/obs"
	"bohr/internal/obs/export"
	"bohr/internal/obs/window"
	"bohr/internal/placement"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

// smallSystem prepares a tiny real system (cluster + workload + Bohr
// placement) for end-to-end serving tests.
func smallSystem(t *testing.T) *core.System { return systemOf(t, 1) }

// systemOf is a prepared Bohr system over that many 120-row datasets.
func systemOf(t *testing.T, datasets int) *core.System {
	t.Helper()
	s := experiments.QuickSetup()
	s.Datasets = datasets
	s.RowsPerSite = 120
	return prepareSystem(t, s, nil)
}

// prepareSystem generates the setup's bigdata-scan data and places it under
// Bohr, reporting to col (nil for none).
func prepareSystem(t testing.TB, s experiments.Setup, col *obs.Collector) *core.System {
	t.Helper()
	c, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := s.PlacementOptions(0)
	opts.Obs = col
	sys, err := core.New(c, w, placement.Bohr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEngineBackendServesRealQueries(t *testing.T) {
	sys := smallSystem(t)
	backend := NewEngineBackend(sys)
	ds := sys.Workload.Datasets[0]

	if backend.Schema("nope") != nil {
		t.Fatal("unknown dataset resolved a schema")
	}
	schema := backend.Schema(ds.Name)
	if schema == nil {
		t.Fatalf("dataset %q has no schema", ds.Name)
	}
	h1, ok := backend.ContentHash(ds.Name)
	if !ok {
		t.Fatalf("dataset %q has no content hash", ds.Name)
	}
	if h2, _ := backend.ContentHash(ds.Name); h2 != h1 {
		t.Fatal("content hash unstable across calls")
	}
	if _, ok := backend.ContentHash("nope"); ok {
		t.Fatal("unknown dataset produced a content hash")
	}

	col := obs.NewCollector(obs.WithWallClock())
	fe := New(backend, Config{}, col)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	dim := schema.Dims()[0]
	query := "SELECT " + dim + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dim + " LIMIT 5"
	// The second statement's order is not the engine's and its LIMIT
	// cuts: a hit must serve the rows the miss served, which is what the
	// cache holds, not the engine's output under that key.
	ordered := "SELECT " + dim + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dim + " ORDER BY value DESC LIMIT 3"
	for _, q := range []string{query, ordered} {
		resp, out := postQuery(t, ts.URL, "alice", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if out.Cached || out.RowCount == 0 {
			t.Fatalf("response = %+v, want uncached rows", out)
		}
		// The repeat is a cache hit with identical rows.
		resp2, out2 := postQuery(t, ts.URL, "bob", q)
		if resp2.StatusCode != http.StatusOK || !out2.Cached {
			t.Fatalf("repeat = %d %+v, want cached", resp2.StatusCode, out2)
		}
		if !reflect.DeepEqual(out2.Rows, out.Rows) {
			t.Fatalf("cached rows %v != fresh rows %v", out2.Rows, out.Rows)
		}
	}
	stmt, err := sql.Parse(ordered)
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := backend.ContentHash(ds.Name)
	held, ok := fe.results.Get(fe.results.Key(Normalize(stmt), hash))
	if !ok || len(held) != 3 || cap(held) != 3 || !(held[0].Val >= held[1].Val && held[1].Val >= held[2].Val) {
		t.Fatalf("cache holds %v (cap %d, present %v), want the 3 rows served, largest first", held, cap(held), ok)
	}

	// A pre-cancelled context unwinds inside the engine (chunk-boundary
	// contract) before any work runs.
	plan, err := sql.CompileString(query, schema)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := backend.Run(cancelled, plan); err == nil {
		t.Fatal("cancelled engine run succeeded")
	}
}

// TestServedRowsOutlivePooledBuffers keeps the rows one served Select
// returned, as the result cache does, and runs three more batches on the
// same cluster: served Selects over both datasets, a MapFn UDF beside a
// Select, and the recurring queries. The engine reuses its combiners, key
// index and scan buffers across calls, but the rows are the query's key
// table, which must never be one of them: the kept rows stay bit-identical.
func TestServedRowsOutlivePooledBuffers(t *testing.T) {
	sys := systemOf(t, 2)
	backend := NewEngineBackend(sys)
	ctx := context.Background()
	ds := sys.Workload.Datasets
	dims := ds[0].Schema.Dims()
	serve := func(d int, stmt string) []engine.KV {
		plan, err := sql.CompileString(fmt.Sprintf(stmt, ds[d].Name), ds[d].Schema)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := backend.RunTraced(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	kept := serve(0, fmt.Sprintf("SELECT %s, SUM(measure) FROM %%s GROUP BY %s", dims[0], dims[0]))
	if len(kept) < 2 {
		t.Fatalf("the kept query returned %d rows, want several", len(kept))
	}
	bits := func(rows []engine.KV) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%q=%x", r.Key, math.Float64bits(r.Val))
		}
		return out
	}
	want := bits(kept)

	other := fmt.Sprintf("SELECT %s, MAX(measure) FROM %%s GROUP BY %s", dims[1], dims[1])
	serve(0, other)
	serve(1, other)
	plan, err := sql.CompileString(fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", dims[0], ds[1].Name, dims[0]), ds[1].Schema)
	if err != nil {
		t.Fatal(err)
	}
	mixed := []engine.JobConfig{
		{Query: engine.UDFQuery("udf x2", ds[0].Name, 2)},
		{Query: plan.Query},
	}
	if _, err := sys.Cluster.RunConcurrent(ctx, mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i, got := range bits(kept) {
		if got != want[i] {
			t.Fatalf("kept row %d of %d changed under later batches: %s, was %s", i, len(want), got, want[i])
		}
	}
}

// TestCacheKeyKeepsLiteralKinds is the regression for the result-cache key
// printing WHERE values bare: a string and a numeric literal, or one
// literal spelling out a second conjunct, normalized to the same text, and
// the second statement was answered with the first one's rows.
func TestCacheKeyKeepsLiteralKinds(t *testing.T) {
	sys := smallSystem(t)
	backend := NewEngineBackend(sys)
	ds := sys.Workload.Datasets[0].Name
	fe := New(backend, Config{}, obs.NewCollector())
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	for _, pair := range [][2]string{
		// hours are "00".."23": every one sorts below the string '5', five
		// of them are below the number 5.
		{"SELECT hour, COUNT(*) FROM " + ds + " WHERE hour < '5' GROUP BY hour",
			"SELECT hour, COUNT(*) FROM " + ds + " WHERE hour < 5 GROUP BY hour"},
		{"SELECT country, COUNT(*) FROM " + ds + " WHERE country = 'US AND hour = 0' GROUP BY country",
			"SELECT country, COUNT(*) FROM " + ds + " WHERE country = 'US' AND hour = 0 GROUP BY country"},
	} {
		var keys [2]string
		var outs [2]QueryResponse
		for i, text := range pair {
			stmt, err := sql.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = fe.results.Key(Normalize(stmt), 1)
			var resp *http.Response
			resp, outs[i] = postQuery(t, ts.URL, "alice", text)
			if resp.StatusCode != http.StatusOK || outs[i].Cached {
				t.Fatalf("%q: status %d cached %v, want a fresh answer", text, resp.StatusCode, outs[i].Cached)
			}
		}
		if keys[0] == keys[1] {
			t.Fatalf("%q and %q share the cache key %q", pair[0], pair[1], keys[0])
		}
		if outs[0].RowCount == outs[1].RowCount {
			t.Fatalf("%q and %q both returned %d rows; the statements select different rows", pair[0], pair[1], outs[0].RowCount)
		}
	}
}

// spanCount is the number of spans in the tree under sp, sp included.
func spanCount(sp *obs.Span) int {
	n := 1
	for _, ch := range sp.Children {
		n += spanCount(ch)
	}
	return n
}

// TestServedQueryHistogramsStayHistograms: a served query's metrics reach
// the daemon's collector, and through it the window registry, as they
// happen, so a histogram the query observes stays a histogram there — no
// "<name>.sum"/"<name>.count" counters beside it — and /metrics names
// every sample once.
func TestServedQueryHistogramsStayHistograms(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 1, 120
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	sys := prepareSystem(t, s, col)
	if _, err := sys.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	const ratio = "combine.reduction.ratio"
	before := col.MetricsSnapshot().Histograms[ratio].Count
	if before == 0 {
		t.Fatalf("RunAll observed no %s", ratio)
	}
	// Configured as bohrd configures it: windows and a flight recorder.
	fe := New(NewEngineBackend(sys), Config{Windows: win, Flight: &FlightConfig{}}, col)
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	ts := httptest.NewServer(exp.Handler())
	defer ts.Close()

	ds := sys.Workload.Datasets[0]
	dims := ds.Schema.Dims()
	for _, q := range []string{
		"SELECT " + dims[0] + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dims[0],
		"SELECT " + dims[1] + ", COUNT(*) FROM " + ds.Name + " GROUP BY " + dims[1],
		"SELECT " + dims[0] + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dims[0] + " ORDER BY value DESC LIMIT 3",
	} {
		if resp, out := postQuery(t, ts.URL, "alice", q); resp.StatusCode != http.StatusOK || out.Cached {
			t.Fatalf("%q: status %d, cached %v; want an uncached answer", q, resp.StatusCode, out.Cached)
		}
	}

	snap := col.MetricsSnapshot()
	if got := snap.Histograms[ratio].Count; got <= before {
		t.Fatalf("%s: %d observations after %d before the served queries; want more", ratio, got, before)
	}
	if snap.Histograms[engine.HistColumnsBuild].Count == 0 {
		t.Fatalf("%s never reached the daemon as a histogram", engine.HistColumnsBuild)
	}
	for _, h := range []string{ratio, engine.HistColumnsBuild} {
		for _, folded := range []string{h + ".sum", h + ".count"} {
			if v, ok := snap.Counters[folded]; ok {
				t.Fatalf("histogram %s folded into counter %s = %v", h, folded, v)
			}
		}
		if w := win.Snapshot().Histograms[h]["1m"]; w.Count == 0 {
			t.Fatalf("window registry holds no %s histogram", h)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		if seen[name] {
			t.Fatalf("/metrics names %s twice", name)
		}
		seen[name] = true
	}
}

// TestServedQueriesKeepDaemonTraceFlat: a served query's spans stay on its
// own request collector, also with the flight recorder at its defaults
// (a zero Config), so the daemon's trace does not grow by one subtree per
// query.
func TestServedQueriesKeepDaemonTraceFlat(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 1, 120
	col := obs.NewCollector()
	sys := prepareSystem(t, s, col)
	fe := New(NewEngineBackend(sys), Config{}, col)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	ds := sys.Workload.Datasets[0]
	dim := ds.Schema.Dims()[0]
	was := spanCount(col.Trace())
	const n = 5
	for i := 1; i <= n; i++ {
		q := fmt.Sprintf("SELECT %s, SUM(measure) FROM %s GROUP BY %s LIMIT %d", dim, ds.Name, dim, i)
		if resp, out := postQuery(t, ts.URL, "alice", q); resp.StatusCode != http.StatusOK || out.Cached {
			t.Fatalf("%q: status %d, cached %v; want an uncached answer", q, resp.StatusCode, out.Cached)
		}
	}
	if got := spanCount(col.Trace()); got != was {
		t.Fatalf("%d served queries took the daemon's trace from %d spans to %d", n, was, got)
	}
}
