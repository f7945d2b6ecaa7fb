// Command bohrctl drives single experiments against the simulated
// geo-distributed deployment: generate a workload, run it under one of the
// six compared schemes, and print the report; or execute an ad-hoc SQL
// query under full Bohr.
//
//	bohrctl -workload tpcds -scheme bohr
//	bohrctl -workload bigdata-scan -scheme iridium-c -datasets 12 -locality
//	bohrctl -workload facebook -sql "SELECT jobclass, COUNT(*) FROM facebook-000 GROUP BY jobclass"
//	bohrctl -workload tpcds -scheme bohr -faults "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"bohr/internal/cliflags"
	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/faults"
	"bohr/internal/obs"
	"bohr/internal/obs/critpath"
	"bohr/internal/obs/export"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// cliOpts carries the parsed command line into run.
type cliOpts struct {
	kindName, schemeName   string
	datasets, rows, probeK int
	locality, dynamic      bool
	seed                   int64
	sqlText, faultSpec     string
	jsonOut                bool
	critPath               bool
	traceOut               string
	common                 cliflags.Common
}

func main() {
	// Live-daemon subcommands ride in front of the classic flag surface:
	// `bohrctl top` and `bohrctl tail` watch a running bohrd serve daemon.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "top":
			if err := runTop(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "bohrctl: %v\n", err)
				os.Exit(1)
			}
			return
		case "tail":
			if err := runTail(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "bohrctl: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	var o cliOpts
	flag.StringVar(&o.kindName, "workload", "bigdata-scan", "bigdata-scan | bigdata-udf | bigdata-aggr | tpcds | facebook")
	flag.StringVar(&o.schemeName, "scheme", "bohr", "iridium | iridium-c | bohr-sim | bohr-joint | bohr-rdd | bohr")
	flag.IntVar(&o.datasets, "datasets", 0, "datasets per workload (0 = default)")
	flag.IntVar(&o.rows, "rows", 0, "rows per site per dataset (0 = default)")
	flag.IntVar(&o.probeK, "k", 0, "probe budget (0 = default 30)")
	flag.BoolVar(&o.locality, "locality", false, "locality-aware initial placement")
	flag.Int64Var(&o.seed, "seed", 0, "random seed (0 = default)")
	flag.StringVar(&o.sqlText, "sql", "", "ad-hoc SQL to run under the chosen scheme")
	flag.BoolVar(&o.dynamic, "dynamic", false, "run the §8.6 highly-dynamic-dataset protocol")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the machine-readable core.Report JSON (trace + metrics) instead of text; standard runs only")
	flag.StringVar(&o.faultSpec, "faults", "", `fault schedule, e.g. "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"`)
	flag.BoolVar(&o.critPath, "critpath", false, "print each query's critical-path decomposition after the run")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the run's trace as Chrome trace-event JSON (chrome://tracing) to this file")
	o.common.Register(flag.CommandLine)
	flag.Parse()
	o.common.Apply()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bohrctl: %v\n", err)
		os.Exit(1)
	}
}

func run(o cliOpts) error {
	kind, err := cliflags.ParseKind(o.kindName)
	if err != nil {
		return err
	}
	scheme, err := cliflags.ParseScheme(o.schemeName)
	if err != nil {
		return err
	}
	s := experiments.DefaultSetup()
	if o.datasets > 0 {
		s.Datasets = o.datasets
	}
	if o.rows > 0 {
		s.RowsPerSite = o.rows
	}
	if o.probeK > 0 {
		s.ProbeK = o.probeK
	}
	if o.seed != 0 {
		s.Seed = o.seed
	}
	if o.faultSpec != "" {
		sched, err := faults.Parse(o.faultSpec)
		if err != nil {
			return err
		}
		s.Faults = sched
	}

	c, w, err := s.Populated(kind, o.locality, 0)
	if err != nil {
		return err
	}

	if o.dynamic {
		empty, err := s.BuildCluster()
		if err != nil {
			return err
		}
		opts := s.PlacementOptions(0)
		var col *obs.Collector
		if o.jsonOut {
			col = obs.NewCollector()
			opts.Obs = col
		}
		rep, err := experiments.RunDynamic(context.Background(), empty, w, scheme, experiments.DefaultDynamicConfig(), opts)
		if err != nil {
			return err
		}
		if o.jsonOut {
			report := &core.Report{
				SchemaVersion: core.ReportSchemaVersion,
				Experiment:    "bohrctl-dynamic",
				Scheme:        scheme.String(),
				Workload:      kind.String(),
				Seed:          s.Seed,
				Dynamic:       rep,
				Trace:         col.Trace(),
				Metrics:       col.MetricsSnapshot(),
			}
			b, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				return fmt.Errorf("encoding report: %w", err)
			}
			fmt.Println(string(b))
			return nil
		}
		fmt.Printf("%s / %v, dynamic: mean QCT %.2fs over %d arrivals, %d replans, %d batches\n",
			scheme, kind, rep.MeanQCT, len(rep.QCTs), rep.Replans, rep.BatchesDelivered)
		return nil
	}

	vanilla, err := core.VanillaBaseline(context.Background(), c.Clone(), w)
	if err != nil {
		return err
	}
	opts := s.PlacementOptions(0)
	needObs := o.jsonOut || o.critPath || o.traceOut != "" || o.common.TelemetryAddr != ""
	var col *obs.Collector
	if needObs {
		col = obs.NewCollector()
		opts.Obs = col
	}
	if o.common.TelemetryAddr != "" {
		srv := export.New(col)
		addr, err := srv.Start(o.common.TelemetryAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bohrctl: telemetry on http://%s/metrics\n", addr)
	}
	sys, err := core.New(c, w, scheme, opts)
	if err != nil {
		return err
	}
	prep, err := sys.Prepare(context.Background())
	if err != nil {
		return err
	}
	if !o.jsonOut {
		fmt.Printf("%s on %v: moved %.1f MB in %.2fs (lag %.0fs), probe checking %.2fs, LP %.2fs\n",
			scheme, kind, prep.MovedMB, prep.MoveDuration, s.Lag, prep.CheckTime, prep.LPTime)
		if s.Faults != nil {
			fmt.Printf("faults: %d scheduled events (%s)\n", len(s.Faults.Events), s.Faults)
		}
	}

	if o.sqlText != "" {
		return runSQL(sys, w, o.sqlText)
	}

	rep, err := sys.RunAll(context.Background())
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
		fmt.Fprintf(os.Stderr, "bohrctl: wrote Chrome trace to %s\n", o.traceOut)
	}
	if o.critPath {
		fmt.Print(critpath.Format(report.CritPaths))
	}
	if o.jsonOut {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding report: %w", err)
		}
		fmt.Println(string(b))
		return nil
	}
	if o.critPath {
		return nil
	}
	fmt.Printf("mean QCT %.2fs over %d queries, %.1f MB shuffled, mean data reduction %.1f%%\n",
		rep.MeanQCT, len(rep.Queries), rep.TotalShuffleMB, stats.Mean(red))
	top := s.Topology()
	fmt.Printf("%-12s %10s %12s\n", "Site", "Inter(MB)", "Reduction")
	for i := 0; i < c.N(); i++ {
		fmt.Printf("%-12s %10.1f %11.1f%%\n", top.Sites[i].Name, rep.IntermediateMBPerSite[i], red[i])
	}
	return nil
}

func runSQL(sys *core.System, w *workload.Workload, text string) error {
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
	res, err := sys.RunQuery(context.Background(), plan.Query)
	if err != nil {
		return err
	}
	rows := plan.PostProcess(res.Output())
	fmt.Printf("%s: QCT %.2fs, %.1f MB shuffled, %d output rows\n",
		plan.Query.Name, res.QCT, res.TotalShuffleMB, len(rows))
	limit := len(rows)
	if limit > 20 {
		limit = 20
	}
	for _, kv := range rows[:limit] {
		fmt.Printf("%-50s %v\n", strings.Join(workload.SplitKey(kv.Key), "|"), kv.Val)
	}
	if len(rows) > limit {
		fmt.Printf("... (%d more rows)\n", len(rows)-limit)
	}
	return nil
}
