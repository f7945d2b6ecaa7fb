// Command bohrd runs the live pieces of the Bohr reproduction as
// subcommands sharing one flag surface (see internal/cliflags).
//
// Serve mode runs the multi-tenant query daemon: data is generated and
// placed once, then POST /v1/query accepts SQL + a tenant ID, with
// telemetry on the same listener:
//
//	bohrd serve -workload bigdata-scan -scheme bohr -telemetry-addr 127.0.0.1:8080
//	curl -s http://127.0.0.1:8080/v1/query -d \
//	  '{"tenant":"alice","query":"SELECT url, SUM(measure) FROM ds0 GROUP BY url LIMIT 3"}'
//
// Load mode streams CSV records ("coord1,coord2,...,value" per line) to
// a serve daemon's ingest endpoint (at-least-once, with per-source
// offsets so a restarted loader can resume with -offset and replays
// dedupe server-side):
//
//	bohrd load -server http://127.0.0.1:8080 -source web-tier \
//	      -site 0 -dataset ds0 -schema url,country -file data.csv
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"bohr/internal/cache"
	"bohr/internal/cliflags"
	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/export"
	"bohr/internal/obs/window"
	"bohr/internal/serve"
)

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "bohrd: usage: bohrd <serve|load> [flags]")
		os.Exit(2)
	}
	sub, args := os.Args[1], os.Args[2:]
	var err error
	switch sub {
	case "serve":
		err = runServe(args)
	case "load":
		err = runLoad(args)
	default:
		err = fmt.Errorf("unknown subcommand %q (want serve or load)", sub)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bohrd: %v\n", err)
		os.Exit(1)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("bohrd serve", flag.ExitOnError)
	var common cliflags.Common
	common.Register(fs)
	var ing cliflags.Ingest
	ing.Register(fs)
	var (
		kindName   = fs.String("workload", "bigdata-scan", "workload to generate and serve")
		schemeName = fs.String("scheme", "bohr", "placement scheme")
		datasets   = fs.Int("datasets", 0, "datasets per workload (0 = default)")
		rows       = fs.Int("rows", 0, "rows per site per dataset (0 = default)")
		seed       = fs.Int64("seed", 0, "random seed (0 = default)")
		quick      = fs.Bool("quick", true, "use the small quick setup")
		maxConc    = fs.Int("max-concurrent", 8, "queries executing at once across tenants")
		quota      = fs.Int("tenant-quota", 2, "concurrently executing queries per tenant")
		maxQueue   = fs.Int("max-queue", 64, "waiting requests before admission control rejects")
		weights    = fs.String("weights", "", `tenant scheduling weights, e.g. "alice=3,bob=1"`)
		slowQuery  = fs.Duration("slow-query", 250*time.Millisecond,
			"latency threshold for slow-query trace retention (negative disables)")
		flightRing = fs.Int("flight-ring", 512, "flight recorder ring size (recent query records)")
		dataDir    = fs.String("data-dir", "",
			"durability directory (WAL + snapshots); acked ingest survives kill -9 and the daemon recovers on restart (empty disables)")
		fsync     = fs.Bool("fsync", true, "fsync the WAL before acking a push (group commit); needs -data-dir")
		snapEvery = fs.Int("snapshot-every", 16,
			"cut a state snapshot every N applied ingest batches, 0 = only at shutdown; needs -data-dir")
		cacheEntries = fs.Int("cache-entries", cache.DefaultEntries,
			"entry cap of the query result cache (0 = unlimited)")
		cacheBytes = fs.Int64("cache-bytes", cache.DefaultBytes,
			"resident-byte cap of the query result cache (0 = unlimited)")
	)
	fs.Parse(args)
	common.Apply()
	logger, err := common.Logger(os.Stderr)
	if err != nil {
		return err
	}

	kind, err := cliflags.ParseKind(*kindName)
	if err != nil {
		return err
	}
	scheme, err := cliflags.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	s := experiments.DefaultSetup()
	if *quick {
		s = experiments.QuickSetup()
	}
	if *datasets > 0 {
		s.Datasets = *datasets
	}
	if *rows > 0 {
		s.RowsPerSite = *rows
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	cluster, w, err := s.Populated(kind, false, 0)
	if err != nil {
		return err
	}
	col := obs.NewCollector(obs.WithWallClock())
	// Tap every metric the daemon records into the rolling-window registry,
	// so /v1/stats (and bohrctl top) report windowed rates and percentiles
	// instead of all-time aggregates.
	win := window.New(nil)
	col.SetSink(win)
	opts := s.PlacementOptions(0)
	opts.Obs = col
	sys, err := core.New(cluster, w, scheme, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bohrd: placing %d datasets under %s...\n", len(w.Datasets), scheme)
	if _, err := sys.Prepare(context.Background()); err != nil {
		return err
	}

	schedCfg := serve.SchedConfig{
		MaxConcurrent: *maxConc, TenantQuota: *quota, MaxQueue: *maxQueue,
		Weights: map[string]float64{},
	}
	for _, pair := range cliflags.SplitCSV(*weights) {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad -weights entry %q (want tenant=weight)", pair)
		}
		wgt, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad weight in %q: %w", pair, err)
		}
		schedCfg.Weights[name] = wgt
	}
	cfg := serve.Config{
		Sched:     schedCfg,
		CacheCaps: cacheCaps(*cacheEntries, *cacheBytes),
		Flight:    &serve.FlightConfig{RingSize: *flightRing, SlowThreshold: *slowQuery},
		Windows:   win,
		Logger:    logger,
	}
	fe := serve.New(serve.NewEngineBackend(sys), cfg, col)
	sys.SetReplanEvery(ing.Replan)
	ingCfg := ing.Config()
	ingCfg.Logger = logger
	var pipe *ingest.Pipeline
	var dman *durable.Manager
	if *dataDir != "" {
		dman, err = durable.Open(durable.Config{Dir: *dataDir, Fsync: *fsync, Logger: logger})
		if err != nil {
			return err
		}
		var sum *durable.RecoverySummary
		pipe, sum, err = fe.EnableDurableIngest(context.Background(), ingCfg, dman, *snapEvery)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr,
			"bohrd: recovered %s: snapshot seq %d, replayed %d frames (%d records, %d deduped), wal seq %d, torn bytes %d\n",
			*dataDir, sum.SnapshotSeq, sum.FramesReplayed, sum.RecordsReplayed,
			sum.RecordsDeduped, sum.WalSeq, sum.TruncatedBytes)
	} else {
		pipe, err = fe.EnableIngest(ingCfg)
		if err != nil {
			return err
		}
	}

	srv := export.New(col)
	srv.Handle("/v1/", fe.Handler())
	// Live levels are gauges their owners push (the scheduler's
	// serve.inflight and serve.queue.depth, the pipeline's
	// ingest.queue_depth): /metrics reads the one registry.
	listen := common.TelemetryAddr
	if listen == "" {
		listen = "127.0.0.1:8080"
	}
	addr, err := srv.Start(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	var names []string
	for _, ds := range w.Datasets {
		names = append(names, ds.Name)
		if len(names) == 5 {
			names = append(names, "...")
			break
		}
	}
	fmt.Printf("bohrd: serving %d datasets (%s) on http://%s/v1/query (ingest on /v1/ingest, metrics on /metrics)\n",
		len(w.Datasets), strings.Join(names, ","), addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	// Orderly shutdown: drain the pipeline (delivering buffered batches),
	// let any in-flight background snapshot finish, cut a final snapshot
	// so the next start replays nothing, and seal the WAL.
	if err := pipe.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bohrd: ingest drain: %v\n", err)
	}
	if dman != nil {
		fe.DrainSnapshots()
		if err := fe.SnapshotNow(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "bohrd: shutdown snapshot: %v\n", err)
		}
		if err := dman.Close(); err != nil {
			return err
		}
	}
	return nil
}

// cacheCaps turns -cache-entries / -cache-bytes into caps: 0 lifts a cap.
// Both caps lifted is cache.Unlimited(), because serve.New reads the zero
// Caps as "use the defaults".
func cacheCaps(entries int, bytes int64) cache.Caps {
	if entries == 0 && bytes == 0 {
		return cache.Unlimited()
	}
	return cache.Caps{Entries: entries, Bytes: bytes}
}

func runLoad(args []string) error {
	fs := flag.NewFlagSet("bohrd load", flag.ExitOnError)
	var common cliflags.Common
	common.Register(fs)
	var ing cliflags.Ingest
	ing.Register(fs)
	var (
		server  = fs.String("server", "", "bohrd serve base URL for streaming ingest (e.g. http://127.0.0.1:8080)")
		source  = fs.String("source", "loader", "ingest source name (offsets are per source)")
		offset  = fs.Uint64("offset", 1, "first ingest offset to assign (resume a restarted source here)")
		site    = fs.Int("site", 0, "destination site ID")
		dataset = fs.String("dataset", "", "dataset name")
		schema  = fs.String("schema", "", "comma-separated dimension names")
		file    = fs.String("file", "", "CSV file of records; - for stdin")
		seed    = fs.Int64("seed", 1, "random seed for retry backoff jitter")
	)
	fs.Parse(args)
	common.Apply()

	schemaDims := cliflags.SplitCSV(*schema)
	if *dataset == "" || len(schemaDims) == 0 {
		return fmt.Errorf("load needs -dataset and -schema")
	}
	if *server == "" {
		return fmt.Errorf("load needs -server")
	}
	in := os.Stdin
	if *file != "" && *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	// Push batches at POST /v1/ingest through the ingest client, which
	// assigns monotonic per-source offsets and retries 429s with seeded
	// backoff (the server's dedupe makes resends safe).
	cli := ingest.NewClient(strings.TrimRight(*server, "/")+"/v1/ingest", *source, ingest.ClientConfig{
		BatchRecords: ing.Batch,
		Seed:         *seed,
		StartOffset:  *offset,
	})
	ctx := context.Background()
	rows := 0
	err := scanCSV(in, schemaDims, func(coords []string, val float64) error {
		rows++
		return cli.Add(ctx, *dataset, *site, coords, val)
	})
	if err != nil {
		return err
	}
	if err := cli.Flush(ctx); err != nil {
		return err
	}
	st := cli.Stats()
	fmt.Printf("bohrd: streamed %d records into %q at site %d as source %q (accepted %d, deduped %d, retries %d, next offset %d)\n",
		rows, *dataset, *site, *source, st.Accepted, st.Deduped, st.Retries, cli.NextOffset())
	return nil
}

// scanCSV reads "coord1,...,coordN,value" lines (blank and # lines
// skipped) and hands each parsed record to emit.
func scanCSV(in *os.File, schemaDims []string, emit func(coords []string, val float64) error) error {
	sc := bufio.NewScanner(in)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != len(schemaDims)+1 {
			return fmt.Errorf("line %d: got %d fields, want %d coords + value", line, len(parts), len(schemaDims))
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(parts[len(parts)-1]), 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value: %w", line, err)
		}
		coords := parts[:len(parts)-1]
		for i := range coords {
			coords[i] = strings.TrimSpace(coords[i])
		}
		if err := emit(coords, val); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return sc.Err()
}
