package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/window"
	"bohr/internal/placement"
	"bohr/internal/serve"
	"bohr/internal/workload"
)

// registeredFlags lists the flags a command prints under -h.
func registeredFlags(t *testing.T, args ...string) []string {
	t.Helper()
	var errOut bytes.Buffer
	if err := run(context.Background(), append(args, "-h"), &bytes.Buffer{}, &errOut); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("%v -h: err = %v, want flag.ErrHelp", args, err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(errOut.String(), -1) {
		names = append(names, m[1])
	}
	return names
}

// TestFlags pins each command's flags: every one it registers is one it
// reads.
func TestFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"critpath", "datasets", "dynamic", "faults", "json", "k", "locality", "rows",
			"scheme", "seed", "sql", "telemetry-addr", "trace-out", "width", "workload"}},
		{[]string{"top"}, []string{"interval", "once", "server", "window"}},
		{[]string{"tail"}, []string{"follow", "interval", "limit", "server", "slow"}},
	} {
		if got := registeredFlags(t, c.args...); !slices.Equal(got, c.want) {
			t.Errorf("bohrctl %v flags = %v, want %v", c.args, got, c.want)
		}
	}
}

// TestTextReport runs the text surfaces of a static run: the summary and
// site table, the critical paths, the Chrome trace file and the telemetry
// listener.
func TestTextReport(t *testing.T) {
	small := []string{"-workload", "tpcds", "-scheme", "bohr", "-datasets", "2", "-rows", "300", "-width", "1"}
	trace := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	args := append([]string{"-trace-out", trace, "-telemetry-addr", "127.0.0.1:0", "-faults", "crash:site=1,start=0,end=5"}, small...)
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Bohr on TPC-DS: moved", "faults: 1 scheduled events", "mean QCT", "Virginia"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out.String())
		}
	}
	for _, want := range []string{"telemetry on http://127.0.0.1:", "wrote Chrome trace to " + trace} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut.String())
		}
	}
	b, err := os.ReadFile(trace)
	if err != nil || !json.Valid(b) {
		t.Fatalf("trace file: %v, valid JSON %v", err, json.Valid(b))
	}
	if got := string(runOK(t, append([]string{"-critpath"}, small...)...)); !strings.Contains(got, "coverage=100.0%") {
		t.Errorf("-critpath printed no critical path:\n%s", got)
	}
}

// TestRunErrors holds each rejected invocation to its error.
func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-scheme", "nope"}, `unknown scheme "nope"`},
		{[]string{"-faults", "flood:site=1"}, "flood"},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-datasets", "1", "-rows", "100", "-sql", "SELECT COUNT(*) FROM nope"}, `dataset "nope" not in workload`},
		{[]string{"top", "-once", "-server", "http://127.0.0.1:1"}, "127.0.0.1:1"},
		{[]string{"tail", "-server", "http://127.0.0.1:1"}, "127.0.0.1:1"},
	} {
		err := run(context.Background(), c.args, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bohrctl %v: err = %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// startDaemon serves a small placed system with windows, the flight
// recorder and ingest, assembled as bohrd serve assembles its daemon, and
// returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 1, 100
	c, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(obs.WithWallClock())
	win := window.New(nil)
	col.SetSink(win)
	opts := s.PlacementOptions(0)
	opts.Obs = col
	sys, err := core.New(c, w, placement.Bohr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	fe := serve.New(serve.NewEngineBackend(sys), serve.Config{
		Flight:  &serve.FlightConfig{SlowThreshold: time.Nanosecond}, // every query is slow
		Windows: win,
	}, col)
	pipe, err := fe.EnableIngest(ingest.Config{MaxBatchRecords: 1, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fe.Handler())
	t.Cleanup(func() {
		srv.Close()
		pipe.Close()
	})
	for _, tenant := range []string{"alice", "bob"} {
		body := `{"tenant":"` + tenant + `","query":"SELECT url, SUM(measure) FROM amplab-000 GROUP BY url LIMIT 3"}`
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query as %s: HTTP %s", tenant, resp.Status)
		}
	}
	cli := ingest.NewClient(srv.URL+"/v1/ingest", "web-tier", ingest.ClientConfig{BatchRecords: 1})
	if err := cli.Add(context.Background(), "amplab-000", 0, []string{"u1", "US", "07"}, 1.5); err != nil {
		t.Fatal(err)
	}
	return srv.URL
}

// TestTopAndTail renders one `top -once` frame and one `tail` page from a
// live daemon.
func TestTopAndTail(t *testing.T) {
	base := startDaemon(t)
	top := string(runOK(t, "top", "-once", "-server", base))
	for _, want := range []string{"window 10s", "queries", "latency", "flightrec 2 recorded",
		"SOURCE", "web-tier", "TENANT", "alice", "bob"} {
		if !strings.Contains(top, want) {
			t.Errorf("top frame lacks %q:\n%s", want, top)
		}
	}
	tail := string(runOK(t, "tail", "-server", base))
	for _, want := range []string{"TRACE", "alice", "bob", "slowest retained queries", "stmt: SELECT url"} {
		if !strings.Contains(tail, want) {
			t.Errorf("tail page lacks %q:\n%s", want, tail)
		}
	}

	// Following, each stops when its context ends.
	for _, args := range [][]string{{"top", "-interval", "1ms"}, {"tail", "-follow", "-interval", "1ms"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := run(ctx, append(args, "-server", base), &bytes.Buffer{}, &bytes.Buffer{})
		cancel()
		if err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
