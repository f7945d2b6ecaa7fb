package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// faultSchedule is the two-event schedule `make determinism` runs under.
const faultSchedule = "crash:site=2,start=40,end=70;degrade:site=0,start=0,end=120,factor=0.3"

// goldenRuns are the invocations whose whole stdout is pinned: the -json
// reports of a static run per planner family, a faulted run and a
// dynamic one, and two SQL statements' text.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"bigdata-scan-bohr", []string{"-workload", "bigdata-scan", "-scheme", "bohr", "-seed", "7", "-json"}},
	{"tpcds-iridium", []string{"-workload", "tpcds", "-scheme", "iridium", "-seed", "7", "-json"}},
	{"bigdata-scan-bohr-faults", []string{"-workload", "bigdata-scan", "-scheme", "bohr", "-seed", "7", "-json", "-faults", faultSchedule}},
	{"dynamic-tpcds-bohr", []string{"-dynamic", "-workload", "tpcds", "-scheme", "bohr", "-seed", "7", "-json"}},
	{"sql-facebook-jobclass", []string{"-workload", "facebook", "-seed", "7",
		"-sql", "SELECT jobclass, COUNT(*) FROM facebook-000 GROUP BY jobclass"}},
	{"sql-tpcds-region", []string{"-workload", "tpcds", "-scheme", "iridium-c", "-seed", "7",
		"-sql", "SELECT region, SUM(measure) FROM tpcds-001 WHERE region != 'AMER' GROUP BY region ORDER BY value DESC"}},
}

// TestGolden holds each golden run's stdout to testdata/<name>.golden
// byte for byte (go test -update rewrites them).
func TestGolden(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			checkGolden(t, g.name, runOK(t, g.args...))
		})
	}
}

// schemeTableWorkloads and schemeTableSchemes span the table
// TestSchemeTable pins; schemeTableSize keeps its 30 runs short.
var (
	schemeTableWorkloads = []string{"bigdata-scan", "bigdata-udf", "bigdata-aggr", "tpcds", "facebook"}
	schemeTableSchemes   = []string{"iridium", "iridium-c", "bohr-sim", "bohr-joint", "bohr-rdd", "bohr"}
	schemeTableSize      = []string{"-seed", "7", "-datasets", "4", "-rows", "1000"}
)

// TestSchemeTable pins every workload under every scheme by the numbers
// the paper's figures are drawn from, one line per run: the MB moved
// before the queries, each query's QCT and each site's intermediate MB,
// all at full precision (%.17g).
func TestSchemeTable(t *testing.T) {
	var b strings.Builder
	for _, kind := range schemeTableWorkloads {
		for _, scheme := range schemeTableSchemes {
			args := append([]string{"-workload", kind, "-scheme", scheme, "-json"}, schemeTableSize...)
			var rep struct {
				Prepare struct {
					MovedMB float64 `json:"moved_mb"`
				} `json:"prepare"`
				Run struct {
					Queries []struct {
						QCT float64 `json:"qct_s"`
					} `json:"queries"`
					InterMB []float64 `json:"intermediate_mb_per_site"`
				} `json:"run"`
			}
			if err := json.Unmarshal(runOK(t, args...), &rep); err != nil {
				t.Fatalf("%s/%s: %v", kind, scheme, err)
			}
			fmt.Fprintf(&b, "%s/%s moved_mb %.17g qct_s", kind, scheme, rep.Prepare.MovedMB)
			for _, q := range rep.Run.Queries {
				fmt.Fprintf(&b, " %.17g", q.QCT)
			}
			b.WriteString(" intermediate_mb")
			for _, mb := range rep.Run.InterMB {
				fmt.Fprintf(&b, " %.17g", mb)
			}
			b.WriteString("\n")
		}
	}
	checkGolden(t, "scheme-table", []byte(b.String()))
}

// runOK runs bohrctl in-process and returns its stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatalf("bohrctl %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update. A mismatch names the run and its first differing
// line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with go test -update)", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	t.Errorf("%s: output differs from %s at line %d\n got: %s\nwant: %s", name, path, i+1, at(gl), at(wl))
}
