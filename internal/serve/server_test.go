package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bohr/internal/cache"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/obs/export"
	"bohr/internal/olap"
	"bohr/internal/sql"
)

// fakeBackend answers from a fixed row set and no trace; block (when
// non-nil) parks RunTraced until the channel closes or the context ends, modeling a long
// scatter the front end must be able to cancel out of.
type fakeBackend struct {
	schema *olap.Schema
	hash   atomic.Uint64
	rows   []engine.KV
	block  chan struct{}
	runs   atomic.Int64
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	schema, err := olap.NewSchema("url", "country")
	if err != nil {
		t.Fatal(err)
	}
	b := &fakeBackend{schema: schema, rows: []engine.KV{
		{Key: "a", Val: 3}, {Key: "b", Val: 1}, {Key: "c", Val: 2},
	}}
	b.hash.Store(0xabc)
	return b
}

func (b *fakeBackend) Schema(dataset string) *olap.Schema {
	if dataset == "logs" {
		return b.schema
	}
	return nil
}

func (b *fakeBackend) ContentHash(dataset string) (uint64, bool) { return b.hash.Load(), true }

func (b *fakeBackend) RunTraced(ctx context.Context, plan *sql.Plan) ([]engine.KV, *obs.Span, error) {
	b.runs.Add(1)
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("fake: run: %w", ctx.Err())
		}
	}
	return b.rows, nil, nil
}

func postQuery(t *testing.T, url, tenant, query string) (*http.Response, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Tenant: tenant, Query: query})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestServeQueryAndCacheHitVisibleInMetrics(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	backend := newFakeBackend(t)
	fe := New(backend, Config{CacheCaps: cache.Caps{Entries: 16}}, col)
	// Mount /v1/ on the telemetry mux exactly as bohrd serve does, so the
	// test covers the shared-listener wiring too.
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	ts := httptest.NewServer(exp.Handler())
	defer ts.Close()

	resp, out := postQuery(t, ts.URL, "alice", "SELECT url, SUM(measure) FROM logs GROUP BY url ORDER BY value DESC LIMIT 2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Cached || out.RowCount != 2 || out.Rows[0].Key != "a" {
		t.Fatalf("first response = %+v, want 2 uncached rows led by a", out)
	}
	// Whitespace/case variant from another tenant: served from cache.
	resp, out = postQuery(t, ts.URL, "bob", "select url,  sum(measure) from logs group by url order by value desc limit 2")
	if resp.StatusCode != http.StatusOK || !out.Cached {
		t.Fatalf("variant response = %d %+v, want cached hit", resp.StatusCode, out)
	}
	if got := backend.runs.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1 (second query cached)", got)
	}
	// Data change (new content hash) must miss.
	backend.hash.Store(0xdef)
	if _, out = postQuery(t, ts.URL, "bob", "SELECT url, SUM(measure) FROM logs GROUP BY url ORDER BY value DESC LIMIT 2"); out.Cached {
		t.Fatal("stale entry served after the content hash changed")
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	text := buf.String()
	for _, want := range []string{
		"bohr_serve_requests 3",
		"bohr_serve_cache_hits 1",
		"bohr_serve_cache_misses 2",
		"bohr_serve_tenant_alice_requests 1",
		"bohr_serve_tenant_bob_requests 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	fe := New(newFakeBackend(t), Config{}, nil)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"tenant":"","query":"SELECT url FROM logs"}`, http.StatusBadRequest},
		{`{"tenant":"a","query":""}`, http.StatusBadRequest},
		{`{"tenant":"a","query":"SELECT FROM WHERE"}`, http.StatusBadRequest},
		// Statements that parse but would answer wrongly: a second aggregate,
		// an aggregate over something other than the measure, a column
		// grouped on twice.
		{`{"tenant":"a","query":"SELECT country, SUM(measure), COUNT(*) FROM logs GROUP BY country"}`, http.StatusBadRequest},
		{`{"tenant":"a","query":"SELECT MAX(nosuch) FROM logs"}`, http.StatusBadRequest},
		{`{"tenant":"a","query":"SELECT SUM(measure) FROM logs GROUP BY country, country"}`, http.StatusBadRequest},
		{`{"tenant":"a","query":"SELECT url, SUM(measure) FROM nope GROUP BY url"}`, http.StatusNotFound},
		{`not json`, http.StatusBadRequest},
		// One byte over the body cap, all of it inside the query string.
		{`{"tenant":"a","query":"` + strings.Repeat("x", maxQueryBody) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("body %.60q: status = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestClientDisconnectReleasesSlot cancels the HTTP request mid-query (a
// client disconnect) and verifies the scheduler slot frees, the inflight
// gauge returns to zero, and no goroutines are left behind.
func TestClientDisconnectReleasesSlot(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	backend := newFakeBackend(t)
	backend.block = make(chan struct{}) // park every RunTraced until cancelled
	fe := New(backend, Config{Sched: SchedConfig{MaxConcurrent: 2, TenantQuota: 2}}, col)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(QueryRequest{Tenant: "alice", Query: "SELECT url, SUM(measure) FROM logs GROUP BY url"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, func() bool { return fe.Scheduler().Inflight() == 1 })
	cancel() // client hangs up mid-scatter
	if err := <-errc; err == nil {
		t.Fatal("disconnected request reported success")
	}
	waitFor(t, func() bool { return fe.Scheduler().Inflight() == 0 })
	snap := col.MetricsSnapshot()
	if got, ok := snap.Gauges["serve.tenant.alice.inflight"]; !ok || got != 0 {
		t.Fatalf("tenant inflight gauge = %v (set %v) after disconnect, want 0", got, ok)
	}
	if snap.Gauges["serve.inflight"] != 0 {
		t.Fatalf("serve.inflight gauge = %v, want 0", snap.Gauges["serve.inflight"])
	}
	if snap.Counters["serve.cancelled"] != 1 {
		t.Fatalf("serve.cancelled = %v, want 1", snap.Counters["serve.cancelled"])
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDeadlineCancelsQuery sends timeout_ms against a parked backend: the
// request must come back 503 with the slot released.
func TestDeadlineCancelsQuery(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	backend := newFakeBackend(t)
	backend.block = make(chan struct{})
	fe := New(backend, Config{}, col)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	body := `{"tenant":"alice","query":"SELECT url, SUM(measure) FROM logs GROUP BY url","timeout_ms":50}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	waitFor(t, func() bool { return fe.Scheduler().Inflight() == 0 })
}

// TestServe64ConcurrentTenants is the acceptance scenario: 64 tenants
// fire concurrently through a small slot pool; every request completes,
// fair-share accounting holds (no tenant ever exceeds its quota), and
// the queue drains to zero.
func TestServe64ConcurrentTenants(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	backend := newFakeBackend(t)
	fe := New(backend, Config{
		Sched:     SchedConfig{MaxConcurrent: 8, TenantQuota: 2, MaxQueue: 256},
		CacheCaps: cache.Caps{Entries: 4},
	}, col)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	const tenants = 64
	const perTenant = 3
	var wg sync.WaitGroup
	var failures atomic.Int64
	var maxInflight atomic.Int64
	stopWatch := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			if n := int64(fe.Scheduler().Inflight()); n > maxInflight.Load() {
				maxInflight.Store(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%02d", ti)
			for q := 0; q < perTenant; q++ {
				// Distinct WHERE per tenant defeats the result cache for
				// most requests, keeping the scheduler loaded.
				query := fmt.Sprintf("SELECT url, SUM(measure) FROM logs WHERE country != 'x%d' GROUP BY url", ti%7)
				resp, _ := postQuery(t, ts.URL, tenant, query)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(ti)
	}
	wg.Wait()
	close(stopWatch)
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, tenants*perTenant)
	}
	if m := maxInflight.Load(); m > 8 {
		t.Fatalf("observed %d concurrent executions, cap 8", m)
	}
	waitFor(t, func() bool { return fe.Scheduler().Inflight() == 0 && fe.Scheduler().QueueDepth() == 0 })
	snap := col.MetricsSnapshot()
	if got := snap.Counters["serve.requests"]; got != tenants*perTenant {
		t.Fatalf("serve.requests = %v, want %d", got, tenants*perTenant)
	}
	if snap.Counters["serve.rejected"] != 0 {
		t.Fatalf("serve.rejected = %v with queue room for all", snap.Counters["serve.rejected"])
	}
}
