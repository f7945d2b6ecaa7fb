package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"bohr/internal/obs"
	"bohr/internal/obs/critpath"
)

// QueryRecord is one served query as the flight recorder remembers it: a
// compact operational record (who, what, how long, where the time went
// coarsely) that stays cheap enough to keep for every request.
type QueryRecord struct {
	// Seq is the recorder's monotonic sequence number; tail cursors key
	// off it.
	Seq uint64 `json:"seq"`
	// TraceID ties the record to log lines and retained traces.
	TraceID string `json:"trace_id"`
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
	// Stmt is the normalized statement text; StmtHash is its FNV-1a hash,
	// so repeated shapes group even when the text is elided.
	Stmt     string `json:"stmt"`
	StmtHash string `json:"stmt_hash"`
	// Start is the request arrival time (RFC3339Nano).
	Start string `json:"start"`
	// LatencyS is the end-to-end request latency in seconds; QueueWaitS
	// is the portion spent parked in the fair scheduler.
	LatencyS   float64 `json:"latency_s"`
	QueueWaitS float64 `json:"queue_wait_s"`
	// Cached marks a result-cache hit (no engine execution).
	Cached bool `json:"cached"`
	// Status is "ok", "error", "cancelled", or "rejected".
	Status string `json:"status"`
	Err    string `json:"error,omitempty"`
	// Slow marks records that cleared the recorder's slow threshold.
	Slow bool `json:"slow"`
}

// SlowRecord is a slow query with its full stitched trace and critical-
// path decomposition retained — the evidence an operator needs after the
// fact, kept only for the K slowest so retention stays bounded.
type SlowRecord struct {
	QueryRecord
	Trace    *obs.Span            `json:"trace,omitempty"`
	CritPath []critpath.QueryPath `json:"crit_path,omitempty"`
}

// slowK bounds how many slow queries keep full traces.
const slowK = 8

// FlightConfig tunes the recorder. The zero value adopts the defaults
// noted per field.
type FlightConfig struct {
	// RingSize bounds the recent-query ring (default 512).
	RingSize int
	// SlowThreshold is the latency above which a query qualifies as slow
	// (default 250ms; <0 disables slow capture).
	SlowThreshold time.Duration
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.RingSize <= 0 {
		c.RingSize = 512
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// FlightStats summarizes the recorder for /v1/stats.
type FlightStats struct {
	// Recorded is the total number of queries ever recorded.
	Recorded uint64 `json:"recorded"`
	// RingLen is how many records the ring currently holds.
	RingLen int `json:"ring_len"`
	// SlowHeld is how many slow queries currently retain full traces.
	SlowHeld int `json:"slow_held"`
	// SlowThresholdS is the slow-capture threshold in seconds.
	SlowThresholdS float64 `json:"slow_threshold_s"`
}

// FlightRecorder is the daemon's bounded query black box: a ring of the
// last RingSize query records, plus full trace + critical-path retention
// for the K slowest queries over the threshold. Every server has one.
type FlightRecorder struct {
	mu   sync.Mutex
	cfg  FlightConfig
	ring []QueryRecord
	next int
	seq  uint64
	slow []SlowRecord
}

// NewFlightRecorder builds a recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return &FlightRecorder{cfg: cfg.withDefaults()}
}

// StmtHash is the canonical statement-shape hash: FNV-1a over the
// normalized statement, hex-encoded.
func StmtHash(normalized string) string {
	h := fnv.New64a()
	h.Write([]byte(normalized))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Record stamps the record's sequence number and stores it; when the
// latency clears the slow threshold, the query's trace and critical-path
// decomposition are retained in the K-slowest set (trace may be nil, e.g.
// for cache hits or backends that cannot trace).
func (f *FlightRecorder) Record(rec QueryRecord, trace *obs.Span) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	rec.Slow = f.cfg.SlowThreshold >= 0 && rec.LatencyS >= f.cfg.SlowThreshold.Seconds()
	if len(f.ring) < f.cfg.RingSize {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[f.next] = rec
	}
	f.next = (f.next + 1) % f.cfg.RingSize
	if !rec.Slow {
		return
	}
	sr := SlowRecord{QueryRecord: rec, Trace: trace}
	if trace != nil {
		sr.CritPath = critpath.Analyze(trace, nil)
	}
	if len(f.slow) < slowK {
		f.slow = append(f.slow, sr)
	} else {
		// Evict the fastest retained slow query if the newcomer beats it.
		minI := 0
		for i, s := range f.slow {
			if s.LatencyS < f.slow[minI].LatencyS {
				minI = i
			}
		}
		if f.slow[minI].LatencyS >= sr.LatencyS {
			return
		}
		f.slow[minI] = sr
	}
}

// Recent returns up to limit records with Seq > after, oldest first
// (limit <= 0 means all).
func (f *FlightRecorder) Recent(after uint64, limit int) []QueryRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]QueryRecord, 0, len(f.ring))
	// The ring is ordered [next..end) ++ [0..next) oldest-first once full;
	// before that it is simply [0..len).
	start := 0
	if len(f.ring) == f.cfg.RingSize {
		start = f.next
	}
	for i := 0; i < len(f.ring); i++ {
		rec := f.ring[(start+i)%len(f.ring)]
		if rec.Seq > after {
			out = append(out, rec)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Slowest returns the retained slow queries, slowest first.
func (f *FlightRecorder) Slowest() []SlowRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]SlowRecord(nil), f.slow...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].LatencyS != out[j].LatencyS {
			return out[i].LatencyS > out[j].LatencyS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Summary summarizes the recorder.
func (f *FlightRecorder) Summary() *FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &FlightStats{
		Recorded:       f.seq,
		RingLen:        len(f.ring),
		SlowHeld:       len(f.slow),
		SlowThresholdS: f.cfg.SlowThreshold.Seconds(),
	}
}
