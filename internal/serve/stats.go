package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"bohr/internal/ingest"
	"bohr/internal/obs/window"
)

// SchedStats is the scheduler's live shape for /v1/stats.
type SchedStats struct {
	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queue_depth"`
}

// CacheStats is the result cache's live shape for /v1/stats.
type CacheStats struct {
	Entries int `json:"entries"`
}

// StatsDoc is the GET /v1/stats document: the daemon's operational state
// as windowed rates/percentiles plus live queue shapes and per-source
// ingest lag — what `bohrctl top` renders.
type StatsDoc struct {
	UptimeS float64 `json:"uptime_s"`
	// Windows carries the rolling-window metric snapshot (nil when the
	// daemon runs without a window registry).
	Windows *window.Snapshot `json:"windows,omitempty"`
	Sched   SchedStats       `json:"sched"`
	Cache   CacheStats       `json:"cache"`
	// IngestPending is records buffered or in delivery (0 when ingest is
	// off); IngestSources is the per-source observability set.
	IngestPending int                  `json:"ingest_pending"`
	IngestSources []ingest.SourceStats `json:"ingest_sources,omitempty"`
	Flight        *FlightStats         `json:"flight,omitempty"`
}

// FlightDoc is the GET /v1/debug/flightrec document: the recent-query
// ring (optionally after a sequence cursor) and the retained slow set
// with traces and critical paths — what `bohrctl tail` renders.
type FlightDoc struct {
	Stats  *FlightStats  `json:"stats"`
	Recent []QueryRecord `json:"recent"`
	Slow   []SlowRecord  `json:"slow,omitempty"`
}

// Stats assembles the /v1/stats document (also used directly by tests).
func (s *Server) Snapshot() *StatsDoc {
	doc := &StatsDoc{
		UptimeS: time.Since(s.start).Seconds(),
		Windows: s.win.Snapshot(),
		Sched: SchedStats{
			Inflight:   s.sched.Inflight(),
			QueueDepth: s.sched.QueueDepth(),
		},
		Cache:  CacheStats{Entries: s.results.Len()},
		Flight: s.flight.Summary(),
	}
	if s.pipe != nil {
		doc.IngestPending = s.pipe.Pending()
		doc.IngestSources = s.pipe.SourcesSnapshot()
	}
	return doc
}

func (s *Server) serveStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Snapshot())
}

// serveFlightrec is GET /v1/debug/flightrec?after=<seq>&limit=<n>&slow=0:
// recent records with Seq > after (oldest first, at most limit), plus the
// slow set unless slow=0.
func (s *Server) serveFlightrec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	limit, _ := strconv.Atoi(q.Get("limit"))
	doc := &FlightDoc{
		Stats:  s.flight.Summary(),
		Recent: s.flight.Recent(after, limit),
	}
	if q.Get("slow") != "0" {
		doc.Slow = s.flight.Slowest()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}
