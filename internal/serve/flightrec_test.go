package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/obs/export"
	"bohr/internal/obs/window"
	"bohr/internal/sql"
)

func TestFlightRecorderRingAndCursor(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{RingSize: 4, SlowThreshold: -1})
	for i := 1; i <= 6; i++ {
		f.Record(QueryRecord{Tenant: fmt.Sprintf("t%d", i)}, nil)
	}
	recent := f.Recent(0, 0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recent))
	}
	// Oldest-first after wrap: records 3,4,5,6 survive.
	for i, r := range recent {
		if want := uint64(i + 3); r.Seq != want {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
	// Cursor pagination: only records past the cursor come back.
	after := f.Recent(4, 0)
	if len(after) != 2 || after[0].Seq != 5 || after[1].Seq != 6 {
		t.Fatalf("Recent(4) = %+v, want seqs 5,6", after)
	}
	// Limit keeps the newest records.
	limited := f.Recent(0, 2)
	if len(limited) != 2 || limited[0].Seq != 5 {
		t.Fatalf("Recent(0, 2) = %+v, want seqs 5,6", limited)
	}
	if st := f.Summary(); st.Recorded != 6 || st.RingLen != 4 {
		t.Fatalf("stats = %+v, want recorded 6 ring 4", st)
	}
}

func TestFlightRecorderSlowRetention(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{RingSize: 16, SlowThreshold: 100 * time.Millisecond})
	trace := fakeQueryTrace()
	f.Record(QueryRecord{Tenant: "fast", LatencyS: 0.01}, trace)
	f.Record(QueryRecord{Tenant: "slow0", LatencyS: 0.2}, trace)
	for i := 1; i < slowK; i++ { // fills the held set
		f.Record(QueryRecord{Tenant: fmt.Sprintf("slow%d", i), LatencyS: 0.4 + float64(i)/10}, trace)
	}
	f.Record(QueryRecord{Tenant: "slow-evicts", LatencyS: 0.3}, trace) // evicts slow0 (0.2)
	f.Record(QueryRecord{Tenant: "slow-late", LatencyS: 0.15}, nil)    // too fast for the held set

	slow := f.Slowest()
	if len(slow) != slowK {
		t.Fatalf("held %d slow records, want %d", len(slow), slowK)
	}
	if first, last := slow[0].Tenant, slow[slowK-1].Tenant; first != fmt.Sprintf("slow%d", slowK-1) || last != "slow-evicts" {
		t.Fatalf("slowest = %s..%s want slow%d..slow-evicts", first, last, slowK-1)
	}
	for _, s := range slow {
		if s.Tenant == "slow0" || s.Tenant == "slow-late" {
			t.Fatalf("held %s; slow0 should be evicted and slow-late never admitted", s.Tenant)
		}
	}
	if slow[0].Trace == nil {
		t.Fatal("slow record dropped its trace")
	}
	if len(slow[0].CritPath) == 0 {
		t.Fatal("slow record has no critical-path decomposition")
	}
	// Ring records carry the slow mark; the fast one does not.
	for _, r := range f.Recent(0, 0) {
		if want := strings.HasPrefix(r.Tenant, "slow"); r.Slow != want {
			t.Fatalf("record %s slow=%v, want %v", r.Tenant, r.Slow, want)
		}
	}
}

// TestFlightRecorderNilSafe: a nil Config.Flight is the recorder's
// defaults, not an off switch. Every server records every query, and
// /v1/debug/flightrec answers.
func TestFlightRecorderNilSafe(t *testing.T) {
	fe := New(newFakeBackend(t), Config{}, nil)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()
	if resp, _ := postQuery(t, ts.URL, "alice", "SELECT url, SUM(measure) FROM logs GROUP BY url"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	want := FlightConfig{}.withDefaults()
	if st := fe.Flight().Summary(); st.Recorded != 1 || st.SlowThresholdS != want.SlowThreshold.Seconds() {
		t.Fatalf("summary = %+v, want 1 recorded under the default threshold", st)
	}
	var doc FlightDoc
	getJSON(t, ts.URL+"/v1/debug/flightrec", &doc)
	if len(doc.Recent) != 1 || doc.Recent[0].Tenant != "alice" {
		t.Fatalf("flightrec recent = %+v, want alice's query", doc.Recent)
	}
}

// fakeQueryTrace builds a span tree shaped like the engine's per-query
// traces (q%02d:name with phase children), so critpath.Analyze works on it.
func fakeQueryTrace() *obs.Span {
	col := obs.NewCollector()
	sp := col.StartSpan("q00:test")
	sp.Child("map").Add(0.05)
	sp.Child("shuffle").Add(0.02)
	sp.Child("reduce").Add(0.03)
	sp.Add(0.1)
	sp.End()
	return col.Trace()
}

// tracedFakeBackend extends fakeBackend with RunTraced, returning a
// per-query trace the way EngineBackend does, with a controllable delay
// so tests can inject slow queries.
type tracedFakeBackend struct {
	*fakeBackend
	delay time.Duration
}

func (b *tracedFakeBackend) RunTraced(ctx context.Context, plan *sql.Plan) ([]engine.KV, *obs.Span, error) {
	rows, _, err := b.fakeBackend.RunTraced(ctx, plan)
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return rows, fakeQueryTrace(), err
}

// TestStatsAndFlightrecEndpoints drives the full telemetry plane end to
// end: queries through the front end land in the windowed registry, the
// flight recorder, and the structured log, and come back out of /v1/stats
// and /v1/debug/flightrec. A deliberately slow query must surface in the
// slow set with a critical path — the bohrctl tail acceptance shape.
func TestStatsAndFlightrecEndpoints(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&logMu, &logBuf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	backend := &tracedFakeBackend{fakeBackend: newFakeBackend(t), delay: 30 * time.Millisecond}
	fe := New(backend, Config{
		Flight:  &FlightConfig{RingSize: 8, SlowThreshold: 20 * time.Millisecond},
		Windows: win,
		Logger:  logger,
	}, col)
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	ts := httptest.NewServer(exp.Handler())
	defer ts.Close()

	resp, out := postQuery(t, ts.URL, "alice", "SELECT url, SUM(measure) FROM logs GROUP BY url")
	if resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("query = %d %+v, want fresh 200", resp.StatusCode, out)
	}
	// A cached repeat also lands in the recorder (latency ~0, not slow).
	if _, out = postQuery(t, ts.URL, "bob", "SELECT url, SUM(measure) FROM logs GROUP BY url"); !out.Cached {
		t.Fatal("repeat was not cached")
	}

	var stats StatsDoc
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Windows == nil {
		t.Fatal("stats has no windowed snapshot")
	}
	if got := stats.Windows.Counters["serve.requests"]["1m"].Sum; got != 2 {
		t.Fatalf("windowed serve.requests = %v, want 2", got)
	}
	if got := stats.Windows.Histograms["serve.latency_s"]["1m"].Count; got != 1 {
		t.Fatalf("windowed latency count = %v, want 1 (cache hit records no latency)", got)
	}
	if stats.Flight == nil || stats.Flight.Recorded != 2 {
		t.Fatalf("flight stats = %+v, want 2 recorded", stats.Flight)
	}

	var flight FlightDoc
	getJSON(t, ts.URL+"/v1/debug/flightrec", &flight)
	if len(flight.Recent) != 2 {
		t.Fatalf("flightrec recent = %d records, want 2", len(flight.Recent))
	}
	first := flight.Recent[0]
	if first.Tenant != "alice" || first.TraceID == "" || first.StmtHash == "" || first.Cached {
		t.Fatalf("first record = %+v, want uncached alice with trace + stmt hash", first)
	}
	if !first.Slow {
		t.Fatalf("30ms query over a 20ms threshold not marked slow: %+v", first)
	}
	if len(flight.Slow) != 1 || flight.Slow[0].Trace == nil || len(flight.Slow[0].CritPath) == 0 {
		t.Fatalf("slow set = %+v, want one record with trace and crit path", flight.Slow)
	}
	if !flight.Recent[1].Cached || flight.Recent[1].Slow {
		t.Fatalf("cached record = %+v, want cached and fast", flight.Recent[1])
	}
	// Cursor: nothing new past the last seq.
	var after FlightDoc
	getJSON(t, ts.URL+"/v1/debug/flightrec?after="+fmt.Sprint(flight.Recent[1].Seq)+"&slow=0", &after)
	if len(after.Recent) != 0 || len(after.Slow) != 0 {
		t.Fatalf("after-cursor fetch = %+v, want empty", after)
	}

	// The structured log carries the trace ID and tenant on each line.
	logMu.Lock()
	logText := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logText, first.TraceID) || !strings.Contains(logText, `"tenant":"alice"`) {
		t.Fatalf("log missing trace/tenant attrs:\n%s", logText)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestHostileTenantCannotCorruptMetrics is the sanitization regression:
// tenant strings with newlines, braces, and quotes must not reach the
// exposition raw — every serve.tenant.* series uses the sanitized label,
// and the ingest path sanitizes source names the same way.
func TestHostileTenantCannotCorruptMetrics(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	fe := New(newFakeBackend(t), Config{}, col)
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	ts := httptest.NewServer(exp.Handler())
	defer ts.Close()

	hostile := "evil\ntenant{job=\"x\"} 42 # HELP"
	resp, _ := postQuery(t, ts.URL, hostile, "SELECT url, SUM(measure) FROM logs GROUP BY url")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hostile-tenant query status = %d", resp.StatusCode)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	body, _ := io.ReadAll(metrics.Body)
	text := string(body)
	if strings.Contains(text, "evil") && strings.Contains(text, "# HELP") &&
		strings.Contains(text, `job="x"`) {
		t.Fatalf("raw hostile tenant leaked into exposition:\n%s", text)
	}
	// Every line must be a comment or a bare "name value" sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# TYPE") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	// The sanitized series exist and carry the request.
	san := obs.SanitizeLabel(hostile)
	if san == hostile || strings.ContainsAny(san, "\n{}\" #") {
		t.Fatalf("SanitizeLabel(%q) = %q, still hostile", hostile, san)
	}
	snap := col.MetricsSnapshot()
	if got := snap.Counters["serve.tenant."+san+".requests"]; got != 1 {
		t.Fatalf("sanitized tenant counter = %v, want 1 (have %v)", got, snap.Counters)
	}
	if got := snap.Gauges["serve.tenant."+san+".inflight"]; got != 0 {
		t.Fatalf("sanitized tenant inflight gauge = %v, want 0 after completion", got)
	}
	// Distinct hostile tenants must stay distinct after sanitizing.
	if obs.SanitizeLabel("a{b") == obs.SanitizeLabel("a}b") {
		t.Fatal("sanitization collapsed distinct tenants")
	}
}

// TestConcurrentScrapesUnderLoad hammers /v1/query while concurrently
// scraping /metrics and /v1/stats, then checks no goroutines leak — the
// telemetry plane must be safe to watch while the daemon is busy. Run
// under -race (make race covers ./internal/serve/...).
func TestConcurrentScrapesUnderLoad(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	backend := &tracedFakeBackend{fakeBackend: newFakeBackend(t)}
	fe := New(backend, Config{
		Sched:   SchedConfig{MaxConcurrent: 4, TenantQuota: 2, MaxQueue: 256},
		Flight:  &FlightConfig{RingSize: 32, SlowThreshold: -1},
		Windows: win,
	}, col)
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	ts := httptest.NewServer(exp.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g)
			for i := 0; i < 10; i++ {
				query := fmt.Sprintf("SELECT url, SUM(measure) FROM logs WHERE country != 'c%d' GROUP BY url", i%3)
				resp, _ := postQuery(t, ts.URL, tenant, query)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				url := ts.URL + "/metrics"
				if g%2 == 1 {
					url = ts.URL + "/v1/stats"
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var stats StatsDoc
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if got := stats.Windows.Counters["serve.requests"]["5m"].Sum; got != 60 {
		t.Fatalf("windowed serve.requests = %v, want 60", got)
	}
	if stats.Flight.Recorded != 60 {
		t.Fatalf("flight recorded = %d, want 60", stats.Flight.Recorded)
	}
	waitFor(t, func() bool { return fe.Scheduler().Inflight() == 0 })
	// Drop pooled keep-alive conns; their read loops are not leaks.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
