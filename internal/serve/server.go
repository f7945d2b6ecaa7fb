package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bohr/internal/cache"
	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/window"
	"bohr/internal/olap"
	"bohr/internal/sql"
)

// Backend executes compiled statements for the front end. RunTraced must
// honor the context at the engine's chunk boundaries, so cancelled
// requests unwind within one stage.
type Backend interface {
	// Schema resolves a dataset's schema, or nil when unknown.
	Schema(dataset string) *olap.Schema
	// ContentHash returns the dataset's change counter, which keys the
	// result cache: it moves on every change to the dataset's data. It
	// is not a hash and says nothing about two datasets holding equal
	// content.
	ContentHash(dataset string) (uint64, bool)
	// RunTraced executes the plan's engine query and returns the raw
	// reduce output (pre ORDER BY / LIMIT) with the query's own trace,
	// which the flight recorder keeps when the query is slow (nil when
	// the backend cannot trace).
	RunTraced(ctx context.Context, plan *sql.Plan) ([]engine.KV, *obs.Span, error)
}

// EngineBackend serves queries against a prepared core.System: the
// simulated cluster with data already placed, the same substrate bohrctl
// drives. A dataset's change counter is the sum of its site stores'
// versions, so the result cache's keys track every data change. Queries
// read under a shared lock; ingest applies under the exclusive lock, so
// live arrivals never race in-flight scans.
type EngineBackend struct {
	sys *core.System

	// stateMu guards the system's mutable serving state: the site stores
	// and the placement plan. Queries and change-counter reads hold it
	// shared; ingest batch application holds it exclusively.
	stateMu sync.RWMutex
}

// NewEngineBackend wraps a prepared system (Prepare must have run).
func NewEngineBackend(sys *core.System) *EngineBackend {
	return &EngineBackend{sys: sys}
}

// Schema resolves the dataset's schema from the system's workload.
func (b *EngineBackend) Schema(dataset string) *olap.Schema {
	for _, ds := range b.sys.Workload.Datasets {
		if ds.Name == dataset {
			return ds.Schema
		}
	}
	return nil
}

// ContentHash returns the dataset's change counter (engine.Cluster.
// Version: the sum of the per-site store versions) — O(sites), no
// allocation, and different after every mutation of any site's records,
// which is all the result cache's key needs of it. It says nothing about
// two clusters holding equal content.
func (b *EngineBackend) ContentHash(dataset string) (uint64, bool) {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.sys.Cluster.Version(dataset)
}

// requestObs builds the collector one served request runs under: it
// stamps wall-clock time when the system's collector does, and its sink is
// the system's collector, so every count, gauge and observation reaches
// the daemon (and its window registry) as it happens, histograms as
// histograms. The request's spans stay on its own tree, so a long-running
// daemon's trace does not grow by one subtree per request. Queries and
// ingest batches both run under one; nothing else builds request
// collectors.
func (b *EngineBackend) requestObs() *obs.Collector {
	var col *obs.Collector
	if b.sys.Obs.WallClock() {
		col = obs.NewCollector(obs.WithWallClock())
	} else {
		col = obs.NewCollector()
	}
	col.SetSink(b.sys.Obs)
	return col
}

// Run is RunTraced without the trace. The front end calls RunTraced; Run
// stays for the benchmark harness, which calls it directly.
func (b *EngineBackend) Run(ctx context.Context, plan *sql.Plan) ([]engine.KV, error) {
	rows, _, err := b.RunTraced(ctx, plan)
	return rows, err
}

// RunTraced executes the plan under the system's placement and a
// request collector (requestObs), and returns the query's own trace next
// to the rows. It holds the backend's shared state lock, so ingest
// applies wait for in-flight queries and queries never observe a
// half-applied batch.
func (b *EngineBackend) RunTraced(ctx context.Context, plan *sql.Plan) ([]engine.KV, *obs.Span, error) {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	col := b.requestObs()
	res, err := b.sys.RunQueryObs(ctx, plan.Query, col)
	if err != nil {
		return nil, col.Trace(), err
	}
	return res.Output(), col.Trace(), nil
}

// ApplyBatch implements the ingest pipeline's delivery side over the
// engine backend: records are grouped into per-(dataset, site) arrivals
// in first-seen order and applied to the system under the exclusive state
// lock (add to the arrival site's store + plan-directed movement + the
// periodic replan hook). It returns every dataset whose version moved — a
// live replan re-executes moves for datasets the batch did not name — so
// the result cache drops their now-unreachable entries at once. Batches
// the system can never apply come back Reject-wrapped, telling the
// pipeline to drop them; any other error means nothing changed. The
// batch runs under a request collector (requestObs).
func (b *EngineBackend) ApplyBatch(ctx context.Context, batch ingest.Batch) ([]string, error) {
	if len(batch.Records) == 0 {
		return nil, nil
	}
	// Two passes: count each arrival's rows, then fill one slab of rows,
	// cut per arrival with its capacity clipped, in acceptance order.
	type groupKey struct {
		dataset string
		site    int
	}
	groups := map[groupKey]int{}
	var arrivals []core.Arrival
	var counts []int
	for _, r := range batch.Records {
		gk := groupKey{r.Dataset, r.Site}
		g, ok := groups[gk]
		if !ok {
			g = len(arrivals)
			groups[gk] = g
			arrivals = append(arrivals, core.Arrival{Dataset: r.Dataset, Site: r.Site})
			counts = append(counts, 0)
		}
		counts[g]++
	}
	rows := make([]olap.Row, len(batch.Records))
	for g, n := range counts {
		arrivals[g].Rows, rows = rows[:0:n], rows[n:]
	}
	for _, r := range batch.Records {
		a := &arrivals[groups[groupKey{r.Dataset, r.Site}]]
		a.Rows = append(a.Rows, olap.Row{Coords: r.Coords, Measure: r.Measure})
	}
	b.stateMu.Lock()
	defer b.stateMu.Unlock()
	dss := b.sys.Workload.Datasets
	before := make([]uint64, len(dss))
	for i, ds := range dss {
		before[i], _ = b.sys.Cluster.Version(ds.Name)
	}
	daemon := b.sys.Obs
	b.sys.Obs = b.requestObs()
	_, err := b.sys.IngestBatch(ctx, arrivals)
	b.sys.Obs = daemon
	if err != nil {
		if errors.Is(err, core.ErrBadArrival) {
			return nil, ingest.Reject(err)
		}
		return nil, err
	}
	var changed []string
	for i, ds := range dss {
		if v, _ := b.sys.Cluster.Version(ds.Name); v != before[i] {
			changed = append(changed, ds.Name)
		}
	}
	return changed, nil
}

// Config tunes the front end.
type Config struct {
	// Sched configures the fair scheduler (zero value = defaults).
	Sched SchedConfig
	// CacheCaps bounds the result cache; the zero value adopts
	// cache.DefaultCaps, and cache.Unlimited() never evicts.
	CacheCaps cache.Caps
	// Flight tunes the flight recorder (per-query records on /v1/debug/
	// flightrec, slow-query trace retention); nil adopts its defaults.
	Flight *FlightConfig
	// Windows is the rolling-window metrics registry rendered on
	// /v1/stats; wire it to the daemon's collector with SetSink. Nil omits
	// windowed stats.
	Windows *window.Registry
	// Logger receives structured request logs (per-query lines at Debug,
	// failures at Warn, with tenant and trace ID attached); nil disables
	// logging.
	Logger *slog.Logger
}

// Server is the multi-tenant query front end. Mount Handler on an HTTP
// mux (the telemetry server's, via export.Server.Handle) and POST
// /v1/query documents at it.
type Server struct {
	backend Backend
	sched   *Scheduler
	results *cache.Results
	col     *obs.Collector
	pipe    *ingest.Pipeline // non-nil after EnableIngest
	flight  *FlightRecorder
	win     *window.Registry // nil when windowed stats are off
	log     *slog.Logger     // nil when logging is off
	start   time.Time
	traceHi string // per-process trace ID prefix
	traceLo uint64 // atomic per-request trace sequence

	// ingestBody is the spare POST /v1/ingest body buffer (see
	// decodeIngestBody); nil while a request holds it.
	ingestBody atomic.Pointer[[]byte]

	// Durability wiring (see durable.go; all nil/zero without it).
	dman        *durable.Manager
	dback       DurableBackend
	snapEvery   int
	snapPending atomic.Int64   // applied batches since the last snapshot
	snapBusy    atomic.Bool    // one background snapshot at a time
	snapWG      sync.WaitGroup // tracks the background snapshot goroutine
}

// New assembles a front end over a backend; col may be nil.
func New(b Backend, cfg Config, col *obs.Collector) *Server {
	caps := cfg.CacheCaps
	if caps == (cache.Caps{}) {
		caps = cache.DefaultCaps()
	}
	s := &Server{
		backend: b,
		sched:   NewScheduler(cfg.Sched, col),
		results: NewResultCache(caps, col),
		col:     col,
		win:     cfg.Windows,
		log:     cfg.Logger,
		start:   time.Now(),
	}
	s.traceHi = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	var flight FlightConfig
	if cfg.Flight != nil {
		flight = *cfg.Flight
	}
	s.flight = NewFlightRecorder(flight)
	return s
}

// Flight exposes the flight recorder, for tests and operator tooling.
func (s *Server) Flight() *FlightRecorder { return s.flight }

// nextTraceID mints a process-unique trace ID for one request.
func (s *Server) nextTraceID() string {
	return fmt.Sprintf("%s-%06x", s.traceHi, atomic.AddUint64(&s.traceLo, 1))
}

// Scheduler exposes the fair scheduler, for tests.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Tenant identifies the caller for quota and fairness accounting.
	Tenant string `json:"tenant"`
	// Query is one statement in the internal/sql dialect.
	Query string `json:"query"`
	// TimeoutMS caps execution; 0 adopts defaultTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// defaultTimeout caps a request's execution when the client did not send
// timeout_ms.
const defaultTimeout = 30 * time.Second

// QueryRow is one result row.
type QueryRow struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

// QueryResponse is the POST /v1/query result document.
type QueryResponse struct {
	Tenant    string     `json:"tenant"`
	Rows      []QueryRow `json:"rows"`
	RowCount  int        `json:"row_count"`
	Cached    bool       `json:"cached"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the front end's /v1/ handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.serveQuery)
	mux.HandleFunc("/v1/ingest", s.serveIngest)
	mux.HandleFunc("/v1/stats", s.serveStats)
	mux.HandleFunc("/v1/debug/flightrec", s.serveFlightrec)
	return mux
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxQueryBody bounds one POST /v1/query request body: a statement and a
// tenant name, never megabytes.
const maxQueryBody = 1 << 20

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request over %d bytes", maxQueryBody)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Tenant == "" {
		s.fail(w, http.StatusBadRequest, "tenant is required")
		return
	}
	if req.Query == "" {
		s.fail(w, http.StatusBadRequest, "query is required")
		return
	}
	stmt, err := sql.Parse(req.Query)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	schema := s.backend.Schema(stmt.Dataset)
	if schema == nil {
		s.fail(w, http.StatusNotFound, "unknown dataset %q", stmt.Dataset)
		return
	}
	plan, err := sql.Compile(stmt, schema)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The request context carries client disconnects; the per-tenant
	// deadline rides on top of it.
	ctx := r.Context()
	timeout := defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	// mt is the tenant's metric-safe label: externally supplied tenant
	// strings must not smuggle structure into registry names.
	mt := obs.SanitizeLabel(req.Tenant)
	norm := Normalize(stmt)
	rec := QueryRecord{
		TraceID:  s.nextTraceID(),
		Tenant:   req.Tenant,
		Dataset:  stmt.Dataset,
		Stmt:     norm,
		StmtHash: StmtHash(norm),
		Start:    start.UTC().Format(time.RFC3339Nano),
	}
	s.col.Count("serve.requests", 1)
	s.col.Count("serve.tenant."+mt+".requests", 1)

	// Result cache: textual variants of one statement over unchanged
	// data are answered without touching the scheduler or the engine.
	// ORDER BY and LIMIT are part of the key, so an entry holds the rows
	// as served and a hit replies with them as they are.
	var key string
	if hash, ok := s.backend.ContentHash(stmt.Dataset); ok {
		key = cacheKey(norm, hash)
		if rows, ok := s.results.Get(key); ok {
			s.col.Count("serve.cache.hits", 1)
			s.col.Count("serve.tenant."+mt+".cache.hits", 1)
			rec.Cached = true
			s.finish(&rec, start, "ok", nil, nil)
			s.reply(w, req.Tenant, rows, true, start)
			return
		}
	}
	s.col.Count("serve.cache.misses", 1)

	waitStart := time.Now()
	release, err := s.sched.Acquire(ctx, req.Tenant)
	rec.QueueWaitS = time.Since(waitStart).Seconds()
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.finish(&rec, start, "rejected", err, nil)
			s.fail(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.col.Count("serve.cancelled", 1)
		s.finish(&rec, start, "cancelled", err, nil)
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer release()

	rows, trace, err := s.backend.RunTraced(ctx, plan)
	if err != nil {
		if ctx.Err() != nil {
			s.col.Count("serve.cancelled", 1)
			s.finish(&rec, start, "cancelled", err, trace)
			s.fail(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.finish(&rec, start, "error", err, trace)
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rows = plan.PostProcess(rows)
	if key != "" {
		s.results.Insert(key, stmt.Dataset, rows)
	}
	s.col.Observe("serve.tenant."+mt+".latency_s", time.Since(start).Seconds())
	s.col.Observe("serve.latency_s", time.Since(start).Seconds())
	s.finish(&rec, start, "ok", nil, trace)
	s.reply(w, req.Tenant, rows, false, start)
}

// finish stamps the record's outcome, hands it to the flight recorder,
// and emits the structured request log line (Debug for ok, Warn for
// everything else) with tenant and trace ID attached.
func (s *Server) finish(rec *QueryRecord, start time.Time, status string, err error, trace *obs.Span) {
	rec.LatencyS = time.Since(start).Seconds()
	rec.Status = status
	if err != nil {
		rec.Err = err.Error()
	}
	s.flight.Record(*rec, trace)
	if s.log == nil {
		return
	}
	lvl := slog.LevelDebug
	if status != "ok" {
		lvl = slog.LevelWarn
	}
	attrs := []any{
		slog.String("trace_id", rec.TraceID),
		slog.String("tenant", rec.Tenant),
		slog.String("dataset", rec.Dataset),
		slog.String("stmt_hash", rec.StmtHash),
		slog.String("status", status),
		slog.Float64("latency_s", rec.LatencyS),
		slog.Float64("queue_wait_s", rec.QueueWaitS),
		slog.Bool("cached", rec.Cached),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.log.Log(context.Background(), lvl, "serve: query", attrs...)
}

func (s *Server) reply(w http.ResponseWriter, tenant string, rows []engine.KV, cached bool, start time.Time) {
	out := make([]QueryRow, len(rows))
	for i, kv := range rows {
		out[i] = QueryRow{Key: kv.Key, Val: kv.Val}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(QueryResponse{
		Tenant: tenant, Rows: out, RowCount: len(out),
		Cached: cached, ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}
