// Package cliflags is the one place the cmd tools define their shared
// flag surface: worker-pool width, logging and the telemetry address
// register identically on every FlagSet that embeds Common, so bohrctl,
// bohrbench, and every bohrd subcommand accept the same knobs with the
// same semantics instead of hand-rolling drift.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"bohr/internal/ingest"
	"bohr/internal/parallel"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// Common is the flag set every cmd tool shares.
type Common struct {
	// Width is the worker pool width for parallel kernels (0 =
	// GOMAXPROCS or $BOHR_PARALLEL_WIDTH, 1 = sequential).
	Width int
	// TelemetryAddr serves /metrics, /healthz and /debug/pprof when
	// non-empty (e.g. 127.0.0.1:9100).
	TelemetryAddr string
	// LogLevel is the structured-logging threshold: debug, info, warn,
	// error, or off.
	LogLevel string
	// LogFormat selects the structured-logging encoding: text or json.
	LogFormat string
}

// Register installs the shared flags on a FlagSet (use flag.CommandLine
// for single-command tools).
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Width, "width", 0,
		"worker pool width for parallel kernels (0 = GOMAXPROCS or $BOHR_PARALLEL_WIDTH, 1 = sequential)")
	fs.StringVar(&c.TelemetryAddr, "telemetry-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
	fs.StringVar(&c.LogLevel, "log-level", "info",
		"structured log threshold: debug, info, warn, error, or off")
	fs.StringVar(&c.LogFormat, "log-format", "text",
		"structured log encoding: text or json")
}

// Logger resolves the -log-level / -log-format flags into a slog.Logger
// writing to w (typically os.Stderr). Level "off" returns nil — callers
// throughout the codebase treat a nil logger as logging disabled.
func (c *Common) Logger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(c.LogLevel) {
	case "debug":
		level = slog.LevelDebug
	case "", "info":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	case "off", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error, or off)", c.LogLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(c.LogFormat) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", c.LogFormat)
}

// Apply pushes the parsed pool width into the process-wide default.
// Call once, after FlagSet.Parse.
func (c *Common) Apply() {
	parallel.SetDefaultWidth(c.Width)
}

// Ingest is the shared flag surface for the streaming-ingestion
// pipeline: every tool that runs or drives an ingest endpoint (bohrd
// serve, bohrd load) registers the same -ingest-* knobs with the same
// semantics.
type Ingest struct {
	// Batch is the size flush trigger in records.
	Batch int
	// Interval is the time flush trigger (negative disables the timer).
	Interval time.Duration
	// Queue caps one source's buffered records before 429.
	Queue int
	// Rate throttles one source's admission in records/second (0 =
	// unlimited).
	Rate float64
	// Replan re-runs placement every N applied batches (0 disables).
	Replan int
}

// Register installs the shared ingest flags on a FlagSet.
func (g *Ingest) Register(fs *flag.FlagSet) {
	fs.IntVar(&g.Batch, "ingest-batch", 256,
		"ingest batch size: records buffered per source before a size-triggered flush")
	fs.DurationVar(&g.Interval, "ingest-interval", 200*time.Millisecond,
		"ingest flush interval for partial batches (negative disables the timer)")
	fs.IntVar(&g.Queue, "ingest-queue", 4096,
		"max buffered records per source before admission control returns 429")
	fs.Float64Var(&g.Rate, "ingest-rate", 0,
		"per-source ingest admission rate in records/second (0 = unlimited)")
	fs.IntVar(&g.Replan, "ingest-replan", 0,
		"replan placement every N applied ingest batches (0 disables live replans)")
}

// Config resolves the flags into a pipeline configuration.
func (g Ingest) Config() ingest.Config {
	return ingest.Config{
		MaxBatchRecords: g.Batch,
		FlushInterval:   g.Interval,
		MaxPending:      g.Queue,
		SourceRate:      g.Rate,
	}
}

// SplitCSV splits a comma-separated flag value, trimming whitespace;
// empty input yields nil.
func SplitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// ParseKind resolves a workload name flag value.
func ParseKind(name string) (workload.Kind, error) {
	switch strings.ToLower(name) {
	case "bigdata-scan":
		return workload.BigDataScan, nil
	case "bigdata-udf":
		return workload.BigDataUDF, nil
	case "bigdata-aggr":
		return workload.BigDataAggr, nil
	case "tpcds":
		return workload.TPCDS, nil
	case "facebook":
		return workload.Facebook, nil
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

// ParseScheme resolves a placement scheme name flag value.
func ParseScheme(name string) (placement.SchemeID, error) {
	for _, id := range placement.AllSchemes() {
		if strings.EqualFold(id.String(), name) {
			return id, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}
