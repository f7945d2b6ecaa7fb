// Package cliflags holds the flag definitions the cmd tools share and what
// they resolve to. A command registers only the flags it reads: the
// experiment setup (SetupFlags, by name), the pool width, the telemetry
// address, logging and the ingest knobs each install on the command's own
// FlagSet, so one flag means the same thing in bohrctl, bohrbench and
// every bohrd subcommand.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"bohr/internal/experiments"
	"bohr/internal/faults"
	"bohr/internal/ingest"
	"bohr/internal/parallel"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// FlagSet returns a FlagSet that reports parse errors and usage on stderr
// and returns them from Parse, so a command's run function can.
func FlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Width registers -width, the worker pool width for parallel kernels. Call
// the returned function after Parse to push it into the process-wide
// default.
func Width(fs *flag.FlagSet) (apply func()) {
	w := fs.Int("width", 0,
		"worker pool width for parallel kernels (0 = GOMAXPROCS or $BOHR_PARALLEL_WIDTH, 1 = sequential)")
	return func() { parallel.SetDefaultWidth(*w) }
}

// TelemetryAddr registers -telemetry-addr: serve /metrics, /healthz and
// /debug/pprof there when non-empty. bohrd serve, which always listens,
// registers its own with the address it listens on by default.
func TelemetryAddr(fs *flag.FlagSet) *string {
	return fs.String("telemetry-addr", "",
		"serve /metrics, /healthz and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
}

// SetupFlags are the flags that size and seed an experiments.Setup. A zero
// size or seed, or an empty fault schedule, keeps the setup's own.
type SetupFlags struct {
	Quick                               bool
	Sites, Datasets, Rows, Runs, ProbeK int
	Seed                                int64
	Faults                              string
}

// Register installs the named flags (quick, sites, datasets, rows, runs,
// k, seed, faults) on fs. -quick defaults to f.Quick as it stands.
func (f *SetupFlags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "quick":
			fs.BoolVar(&f.Quick, name, f.Quick, "use the small quick setup")
		case "sites":
			fs.IntVar(&f.Sites, name, 0, "number of sites (0 = the setup's)")
		case "datasets":
			fs.IntVar(&f.Datasets, name, 0, "datasets per workload (0 = the setup's)")
		case "rows":
			fs.IntVar(&f.Rows, name, 0, "rows per site per dataset (0 = the setup's)")
		case "runs":
			fs.IntVar(&f.Runs, name, 0, "experiment repetitions (0 = the setup's)")
		case "k":
			fs.IntVar(&f.ProbeK, name, 0, "probe record budget (0 = the setup's, 30)")
		case "seed":
			fs.Int64Var(&f.Seed, name, 0, "random seed (0 = the setup's)")
		case "faults":
			fs.StringVar(&f.Faults, name, "",
				`fault schedule, e.g. "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"`)
		default:
			panic("cliflags: no setup flag -" + name)
		}
	}
}

// Setup resolves the flags over the quick or the default setup.
func (f SetupFlags) Setup() (experiments.Setup, error) {
	s := experiments.DefaultSetup()
	if f.Quick {
		s = experiments.QuickSetup()
	}
	for _, o := range []struct {
		flag  int
		field *int
	}{
		{f.Sites, &s.Sites}, {f.Datasets, &s.Datasets}, {f.Rows, &s.RowsPerSite},
		{f.Runs, &s.Runs}, {f.ProbeK, &s.ProbeK},
	} {
		if o.flag > 0 {
			*o.field = o.flag
		}
	}
	if f.Seed != 0 {
		s.Seed = f.Seed
	}
	if f.Faults != "" {
		sched, err := faults.Parse(f.Faults)
		if err != nil {
			return s, err
		}
		s.Faults = sched
	}
	return s, nil
}

// Logging is the structured-logging flag surface.
type Logging struct {
	// Level is the threshold: debug, info, warn, error, or off.
	Level string
	// Format is the encoding: text or json.
	Format string
}

// Register installs -log-level and -log-format on fs.
func (l *Logging) Register(fs *flag.FlagSet) {
	fs.StringVar(&l.Level, "log-level", "info",
		"structured log threshold: debug, info, warn, error, or off")
	fs.StringVar(&l.Format, "log-format", "text",
		"structured log encoding: text or json")
}

// Logger resolves the flags into a slog.Logger writing to w. Level "off"
// returns nil — callers throughout the codebase treat a nil logger as
// logging disabled.
func (l Logging) Logger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(l.Level) {
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
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error, or off)", l.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(l.Format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", l.Format)
}

// IngestBatch registers -ingest-batch, the records per flushed batch: the
// daemon's size trigger and the loader's push size.
func IngestBatch(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "ingest-batch", 256,
		"ingest batch size: records buffered per source before a size-triggered flush")
}

// Ingest is the streaming-ingestion pipeline's flag surface.
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

// Register installs the -ingest-* flags on fs.
func (g *Ingest) Register(fs *flag.FlagSet) {
	IngestBatch(fs, &g.Batch)
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
