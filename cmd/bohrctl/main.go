// Command bohrctl drives single experiments against the simulated
// geo-distributed deployment: generate a workload, run it under one of the
// six compared schemes, and print the report; or execute an ad-hoc SQL
// query under full Bohr.
//
//	bohrctl -workload tpcds -scheme bohr
//	bohrctl -workload bigdata-scan -scheme iridium-c -datasets 12 -locality
//	bohrctl -workload facebook -sql "SELECT jobclass, COUNT(*) FROM facebook-000 GROUP BY jobclass"
//	bohrctl -workload tpcds -scheme bohr -faults "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"
//
// `bohrctl top` and `bohrctl tail` watch a running bohrd serve daemon
// (live.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"bohr/internal/cliflags"
	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/obs"
	"bohr/internal/obs/critpath"
	"bohr/internal/obs/export"
	"bohr/internal/placement"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, stop) // a second interrupt kills
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "bohrctl: %v\n", err)
		os.Exit(1)
	}
}

// run is bohrctl with its arguments (without the program name).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "top":
			return runTop(ctx, args[1:], stdout, stderr)
		case "tail":
			return runTail(ctx, args[1:], stdout, stderr)
		}
	}
	fs := cliflags.FlagSet("bohrctl", stderr)
	var (
		kindName   = fs.String("workload", "bigdata-scan", "bigdata-scan | bigdata-udf | bigdata-aggr | tpcds | facebook")
		schemeName = fs.String("scheme", "bohr", "iridium | iridium-c | bohr-sim | bohr-joint | bohr-rdd | bohr")
		locality   = fs.Bool("locality", false, "locality-aware initial placement")
		sqlText    = fs.String("sql", "", "ad-hoc SQL to run under the chosen scheme")
		dynamic    = fs.Bool("dynamic", false, "run the §8.6 highly-dynamic-dataset protocol")
		o          ctl
		sf         cliflags.SetupFlags
	)
	fs.BoolVar(&o.jsonOut, "json", false, "emit the machine-readable core.Report JSON (trace + metrics) instead of text; standard runs only")
	fs.BoolVar(&o.critPath, "critpath", false, "print each query's critical-path decomposition after the run")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's trace as Chrome trace-event JSON (chrome://tracing) to this file")
	telemetry := cliflags.TelemetryAddr(fs)
	sf.Register(fs, "datasets", "rows", "k", "seed", "faults")
	width := cliflags.Width(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	width()
	kind, err := cliflags.ParseKind(*kindName)
	if err != nil {
		return err
	}
	if o.scheme, err = cliflags.ParseScheme(*schemeName); err != nil {
		return err
	}
	if o.s, err = sf.Setup(); err != nil {
		return err
	}
	o.telemetryAddr, o.stdout, o.stderr = *telemetry, stdout, stderr
	c, w, err := o.s.Populated(kind, *locality, 0)
	if err != nil {
		return err
	}
	if *dynamic {
		return o.runDynamic(ctx, w)
	}
	return o.runStatic(ctx, c, w, *sqlText)
}

// ctl is one parsed bohrctl invocation.
type ctl struct {
	s                 experiments.Setup
	scheme            placement.SchemeID
	jsonOut, critPath bool
	traceOut          string
	telemetryAddr     string
	stdout, stderr    io.Writer
}

// writeReport prints report as indented JSON.
func (o *ctl) writeReport(report *core.Report) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	_, err = fmt.Fprintln(o.stdout, string(b))
	return err
}

// runDynamic runs the §8.6 protocol: w's batches arrive into an empty
// cluster through the served ingest path.
func (o *ctl) runDynamic(ctx context.Context, w *workload.Workload) error {
	empty, err := o.s.BuildCluster()
	if err != nil {
		return err
	}
	opts := o.s.PlacementOptions(0)
	var col *obs.Collector
	if o.jsonOut {
		col = obs.NewCollector()
		opts.Obs = col
	}
	rep, err := experiments.RunDynamic(ctx, empty, w, o.scheme, experiments.DefaultDynamicConfig(), opts)
	if err != nil {
		return err
	}
	if o.jsonOut {
		return o.writeReport(&core.Report{
			SchemaVersion: core.ReportSchemaVersion,
			Experiment:    "bohrctl-dynamic",
			Scheme:        o.scheme.String(),
			Workload:      w.Kind.String(),
			Seed:          o.s.Seed,
			Dynamic:       rep,
			Trace:         col.Trace(),
			Metrics:       col.MetricsSnapshot(),
		})
	}
	fmt.Fprintf(o.stdout, "%s / %v, dynamic: mean QCT %.2fs over %d arrivals, %d replans, %d batches\n",
		o.scheme, w.Kind, rep.MeanQCT, len(rep.QCTs), rep.Replans, rep.BatchesDelivered)
	return nil
}

// runStatic places w on c under the scheme, then runs its recurring
// queries, or the one SQL statement when sqlText is set.
func (o *ctl) runStatic(ctx context.Context, c *engine.Cluster, w *workload.Workload, sqlText string) error {
	vanilla, err := core.VanillaBaseline(ctx, c.Clone(), w)
	if err != nil {
		return err
	}
	opts := o.s.PlacementOptions(0)
	needObs := o.jsonOut || o.critPath || o.traceOut != "" || o.telemetryAddr != ""
	var col *obs.Collector
	if needObs {
		col = obs.NewCollector()
		opts.Obs = col
	}
	if o.telemetryAddr != "" {
		srv := export.New(col)
		addr, err := srv.Start(o.telemetryAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(o.stderr, "bohrctl: telemetry on http://%s/metrics\n", addr)
	}
	sys, err := core.New(c, w, o.scheme, opts)
	if err != nil {
		return err
	}
	prep, err := sys.Prepare(ctx)
	if err != nil {
		return err
	}
	if !o.jsonOut {
		fmt.Fprintf(o.stdout, "%s on %v: moved %.1f MB in %.2fs (lag %.0fs), probe checking %.2fs, LP %.2fs\n",
			o.scheme, w.Kind, prep.MovedMB, prep.MoveDuration, o.s.Lag, prep.CheckTime, prep.LPTime)
		if o.s.Faults != nil {
			fmt.Fprintf(o.stdout, "faults: %d scheduled events (%s)\n", len(o.s.Faults.Events), o.s.Faults)
		}
	}

	if sqlText != "" {
		return o.runSQL(ctx, sys, w, sqlText)
	}

	rep, err := sys.RunAll(ctx)
	if err != nil {
		return err
	}
	red := core.DataReduction(vanilla, rep.IntermediateMBPerSite)
	var report *core.Report
	if needObs {
		report = sys.Report()
		report.Experiment = "bohrctl"
		report.DataReductionPct = red
	}
	if o.traceOut != "" {
		b, err := export.ChromeTrace(report.Trace)
		if err != nil {
			return fmt.Errorf("encoding trace: %w", err)
		}
		if err := os.WriteFile(o.traceOut, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "bohrctl: wrote Chrome trace to %s\n", o.traceOut)
	}
	if o.critPath {
		fmt.Fprint(o.stdout, critpath.Format(report.CritPaths))
	}
	if o.jsonOut {
		return o.writeReport(report)
	}
	if o.critPath {
		return nil
	}
	fmt.Fprintf(o.stdout, "mean QCT %.2fs over %d queries, %.1f MB shuffled, mean data reduction %.1f%%\n",
		rep.MeanQCT, len(rep.Queries), rep.TotalShuffleMB, stats.Mean(red))
	top := o.s.Topology()
	fmt.Fprintf(o.stdout, "%-12s %10s %12s\n", "Site", "Inter(MB)", "Reduction")
	for i := 0; i < c.N(); i++ {
		fmt.Fprintf(o.stdout, "%-12s %10.1f %11.1f%%\n", top.Sites[i].Name, rep.IntermediateMBPerSite[i], red[i])
	}
	return nil
}

// runSQL runs one statement on the prepared system and prints its first
// 20 rows.
func (o *ctl) runSQL(ctx context.Context, sys *core.System, w *workload.Workload, text string) error {
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	var ds *workload.Dataset
	for _, d := range w.Datasets {
		if d.Name == stmt.Dataset {
			ds = d
			break
		}
	}
	if ds == nil {
		var names []string
		for _, d := range w.Datasets {
			names = append(names, d.Name)
		}
		return fmt.Errorf("dataset %q not in workload (have %v)", stmt.Dataset, names)
	}
	plan, err := sql.Compile(stmt, ds.Schema)
	if err != nil {
		return err
	}
	res, err := sys.RunQuery(ctx, plan.Query)
	if err != nil {
		return err
	}
	rows := plan.PostProcess(res.Output())
	fmt.Fprintf(o.stdout, "%s: QCT %.2fs, %.1f MB shuffled, %d output rows\n",
		plan.Query.Name, res.QCT, res.TotalShuffleMB, len(rows))
	limit := min(len(rows), 20)
	for _, kv := range rows[:limit] {
		fmt.Fprintf(o.stdout, "%-50s %v\n", strings.Join(workload.SplitKey(kv.Key), "|"), kv.Val)
	}
	if len(rows) > limit {
		fmt.Fprintf(o.stdout, "... (%d more rows)\n", len(rows)-limit)
	}
	return nil
}
