// Package export serves a Collector's live state over HTTP using only the
// standard library: Prometheus text-format metrics on /metrics, a
// liveness probe on /healthz, and the runtime profiler on /debug/pprof/.
// bohrd serve always runs one, bohrctl when given -telemetry-addr. Every
// value it exposes is one the collector holds: live levels (scheduler
// inflight and queue depth, ingest queue depth) are gauges their owners
// push, so a scrape reads one registry and each name appears once.
package export

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bohr/internal/obs"
)

// Server exposes one Collector's metrics over HTTP.
type Server struct {
	col   *obs.Collector
	start time.Time

	mu    sync.Mutex
	extra map[string]http.Handler
	ln    net.Listener
	srv   *http.Server
}

// New wraps a collector for serving. The collector may be shared with a
// running daemon; scrapes snapshot it safely.
func New(col *obs.Collector) *Server {
	return &Server{col: col, start: time.Now()}
}

// Handle mounts an application handler on the telemetry mux (for example
// a query front end's /v1/ tree), so data-plane and observability
// endpoints share one listener. Register before Start; patterns follow
// net/http ServeMux semantics and must not collide with the built-ins.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.extra == nil {
		s.extra = map[string]http.Handler{}
	}
	s.extra[pattern] = h
}

// Handler returns the telemetry handler tree, for embedding or testing
// without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mu.Lock()
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (e.g. "127.0.0.1:9100"; port 0 picks a free one)
// and serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("export: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe to call without Start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_s\":%.3f}\n", time.Since(s.start).Seconds())
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.col.MetricsSnapshot()
	if snap == nil {
		snap = &obs.Snapshot{}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	writeFamily(&b, "counter", snap.Counters)
	writeFamily(&b, "gauge", snap.Gauges)
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		m := promName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", m)
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			fmt.Fprintf(&b, "%s{quantile=\"%s\"} %s\n", m, q.label, promVal(q.v))
		}
		fmt.Fprintf(&b, "%s_sum %s\n", m, promVal(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", m, h.Count)
	}
	w.Write([]byte(b.String()))
}

func writeFamily(b *strings.Builder, typ string, vals map[string]float64) {
	for _, name := range sortedKeys(vals) {
		m := promName(name)
		fmt.Fprintf(b, "# TYPE %s %s\n", m, typ)
		fmt.Fprintf(b, "%s %s\n", m, promVal(vals[name]))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps a registry name like "wan.move.site-0->site-2.mb" onto the
// Prometheus name charset [a-zA-Z0-9_:], prefixed with the bohr_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("bohr_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
