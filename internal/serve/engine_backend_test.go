package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/obs"
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
	held, ok := fe.results.Get(fe.results.Key(stmt, hash))
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
			keys[i] = fe.results.Key(stmt, 1)
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
