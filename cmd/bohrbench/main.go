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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"bohr/internal/cliflags"
	"bohr/internal/core"
	"bohr/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, stop) // a second interrupt kills
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "bohrbench: %v\n", err)
		os.Exit(1)
	}
}

// run is bohrbench with its arguments (without the program name). An
// interrupt stops it between exhibits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var names []string
	for _, x := range experiments.Exhibits {
		names = append(names, x.Name)
	}
	fs := cliflags.FlagSet("bohrbench", stderr)
	var (
		exp     = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ", ")+", or all")
		jsonOut = fs.String("json", "", "write the machine-readable core.Report document to this file")
		sf      cliflags.SetupFlags
	)
	sf.Register(fs, "quick", "sites", "datasets", "rows", "runs", "k", "seed")
	width := cliflags.Width(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	width()
	s, err := sf.Setup()
	if err != nil {
		return err
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
		if err := ctx.Err(); err != nil {
			return err
		}
		ran++
		start := time.Now()
		out, err := x.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", x.Name, time.Since(start).Seconds())
		if reps := s.DrainReports(); *jsonOut != "" && len(reps) > 0 {
			jsonExps = append(jsonExps, &core.Report{
				SchemaVersion: core.ReportSchemaVersion,
				Experiment:    x.Name,
				Children:      reps,
			})
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q (use %s or all)", *exp, strings.Join(names, ", "))
	}
	if *jsonOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(&core.Report{
		SchemaVersion: core.ReportSchemaVersion,
		Experiment:    "bohrbench",
		Seed:          s.Seed,
		Children:      jsonExps,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", *jsonOut, err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	return nil
}
