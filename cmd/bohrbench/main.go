// Command bohrbench regenerates every table and figure of the paper's
// evaluation section on the scaled-down reproduction. Each experiment
// prints the same rows or series the paper reports.
//
// Usage:
//
//	bohrbench -exp all
//	bohrbench -exp fig6,fig8,tab5 -datasets 12 -runs 5
//	bohrbench -exp fig6 -json out.json
//
// Each scheme run is made once per invocation, with a phase-span trace and
// metrics: Figure 8 reads Figure 6's runs. With -json the invocation is
// written as one core.Report document (stable schema, byte-identical
// across runs with the same seed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bohr/internal/cliflags"
	"bohr/internal/core"
	"bohr/internal/experiments"
)

func main() {
	var names []string
	for _, x := range experiments.Exhibits {
		names = append(names, x.Name)
	}
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ", ")+", or all")
		sites    = flag.Int("sites", 0, "override number of sites")
		datasets = flag.Int("datasets", 0, "override datasets per workload")
		rows     = flag.Int("rows", 0, "override rows per site per dataset")
		runs     = flag.Int("runs", 0, "override experiment repetitions")
		probeK   = flag.Int("k", 0, "override probe record budget")
		seed     = flag.Int64("seed", 0, "override random seed")
		quick    = flag.Bool("quick", false, "use the small quick setup")
		jsonOut  = flag.String("json", "", "write the machine-readable core.Report document to this file")
	)
	var common cliflags.Common
	common.Register(flag.CommandLine)
	flag.Parse()
	common.Apply()

	s := experiments.DefaultSetup()
	if *quick {
		s = experiments.QuickSetup()
	}
	for _, o := range []struct{ flag, field *int }{
		{sites, &s.Sites}, {datasets, &s.Datasets}, {rows, &s.RowsPerSite}, {runs, &s.Runs}, {probeK, &s.ProbeK},
	} {
		if *o.flag > 0 {
			*o.field = *o.flag
		}
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	s.OpenRunTable()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	ran := 0
	var jsonExps []*core.Report
	for _, x := range experiments.Exhibits {
		if !want["all"] && !want[x.Name] {
			continue
		}
		ran++
		start := time.Now()
		out, err := x.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bohrbench: %s: %v\n", x.Name, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s in %.1fs)\n\n", x.Name, time.Since(start).Seconds())
		if reps := s.DrainReports(); *jsonOut != "" && len(reps) > 0 {
			jsonExps = append(jsonExps, &core.Report{
				SchemaVersion: core.ReportSchemaVersion,
				Experiment:    x.Name,
				Children:      reps,
			})
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "bohrbench: no experiment matched %q (use %s or all)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}

	if *jsonOut != "" {
		doc := &core.Report{
			SchemaVersion: core.ReportSchemaVersion,
			Experiment:    "bohrbench",
			Seed:          s.Seed,
			Children:      jsonExps,
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bohrbench: encoding report: %v\n", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bohrbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
