package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is an output a running daemon writes while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServe runs `bohrd serve` in-process on a small quick setup with its
// durability directory at dir. It returns the daemon's base URL, its
// stderr, and stop, which cancels the daemon's context and returns what
// run returned; the test's cleanup stops it too.
func startServe(t *testing.T, dir string) (base string, stderr *syncBuffer, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	var runErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		runErr = run(ctx, []string{"serve", "-quick", "-datasets", "1", "-rows", "24", "-seed", "7",
			"-telemetry-addr", "127.0.0.1:0", "-data-dir", dir,
			"-ingest-batch", "8", "-ingest-interval", "20ms", "-log-level", "warn"}, stdout, stderr)
	}()
	stop = sync.OnceValue(func() error {
		cancel()
		<-finished
		return runErr
	})
	t.Cleanup(func() { stop() })
	serving := regexp.MustCompile(`on (http://[^/]+)/v1/query`)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := serving.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], stderr, stop
		}
		select {
		case <-finished:
			t.Fatalf("bohrd serve exited before serving: %v\n%s", runErr, stderr.String())
		default:
		}
	}
	t.Fatalf("bohrd serve did not serve within 30s\n%s", stderr.String())
	return "", nil, nil
}

// count returns SELECT COUNT(*) over amplab-000 as the daemon answers it.
func count(t *testing.T, base string) float64 {
	t.Helper()
	body := `{"tenant":"test","query":"SELECT COUNT(*) FROM amplab-000"}`
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Rows []struct {
			Val float64 `json:"val"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || len(doc.Rows) != 1 {
		t.Fatalf("COUNT(*): HTTP %s, %d rows, %v", resp.Status, len(doc.Rows), err)
	}
	return doc.Rows[0].Val
}

// TestLoadIntoServe streams a CSV into an in-process daemon through
// `bohrd load`, waits for COUNT(*) to take the streamed records in, has
// `bohrctl top -once` and `tail` render it, stops the daemon by its
// context and restarts it on the same directory, which must recover from
// the shutdown snapshot alone.
func TestLoadIntoServe(t *testing.T) {
	dir := t.TempDir()
	base, _, stop := startServe(t, dir)
	before := count(t, base)

	const streamed = 20
	var csv strings.Builder
	csv.WriteString("# url,country,hour,value\n\n")
	for i := range streamed {
		fmt.Fprintf(&csv, "u-load-%d, US ,07,%d.5\n", i, i)
	}
	file := filepath.Join(t.TempDir(), "records.csv")
	if err := os.WriteFile(file, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"load", "-server", base, "-source", "csv-test",
		"-dataset", "amplab-000", "-schema", "url,country,hour", "-file", file, "-ingest-batch", "8"}, &out, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("streamed %d records into \"amplab-000\" at site 0 as source \"csv-test\" (accepted %d, deduped 0, retries 0, next offset %d)",
		streamed, streamed, streamed+1); !strings.Contains(out.String(), want) {
		t.Errorf("load printed %q, want it to contain %q", out.String(), want)
	}
	want := before + streamed
	for deadline := time.Now().Add(10 * time.Second); count(t, base) != want; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("COUNT(*) = %v, want %v seed + %d streamed records", count(t, base), before, streamed)
		}
	}

	// The same daemon, as the bohrctl dashboards render it: a test cannot
	// call another main package's run, so these run the built binary.
	bin := filepath.Join(t.TempDir(), "bohrctl")
	if out, err := exec.Command("go", "build", "-o", bin, "bohr/cmd/bohrctl").CombinedOutput(); err != nil {
		t.Fatalf("building bohrctl: %v\n%s", err, out)
	}
	for _, c := range []struct{ args, want string }{
		{"top -once", "csv-test"}, // the loader's source row
		{"tail", "amplab-000"},    // the COUNT(*) queries' records
	} {
		out, err := exec.Command(bin, append(strings.Fields(c.args), "-server", base)...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), c.want) {
			t.Errorf("bohrctl %s: %v, want a frame naming %q:\n%s", c.args, err, c.want, out)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("serve returned %v after its context ended", err)
	}

	base, stderr, _ := startServe(t, dir)
	recovered := regexp.MustCompile(`recovered .*: snapshot seq (\d+), replayed (\d+) frames`).FindStringSubmatch(stderr.String())
	if recovered == nil || recovered[1] == "0" || recovered[2] != "0" {
		t.Fatalf("restart did not recover from the shutdown snapshot alone:\n%s", stderr.String())
	}
	if got := count(t, base); got != want {
		t.Errorf("COUNT(*) after recovery = %v, want %v", got, want)
	}
}

// TestScanCSV holds the loader's parser to its format: blank and # lines
// skipped, fields trimmed, and each bad line named.
func TestScanCSV(t *testing.T) {
	var got []string
	err := scanCSV(strings.NewReader("# header\n\n a , b ,1.5\nc,d,2\n"), []string{"x", "y"},
		func(coords []string, val float64) error {
			got = append(got, fmt.Sprintf("%s|%s=%g", coords[0], coords[1], val))
			return nil
		})
	if err != nil || !slices.Equal(got, []string{"a|b=1.5", "c|d=2"}) {
		t.Fatalf("records %v, err %v", got, err)
	}
	for in, want := range map[string]string{
		"a,b\n":          "line 1: got 2 fields, want 2 coords + value",
		"a,b,1\na,b,x\n": "line 2: bad value",
	} {
		if err := scanCSV(strings.NewReader(in), []string{"x", "y"}, func([]string, float64) error { return nil }); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("scanCSV(%q) = %v, want %q", in, err, want)
		}
	}
	stop := errors.New("stop")
	if err := scanCSV(strings.NewReader("a,b,1\n"), []string{"x", "y"}, func([]string, float64) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("emit error = %v, want it wrapped", err)
	}
}

// TestFlagsAndErrors pins the flags each subcommand registers (each one it
// reads), serve's -telemetry-addr default (the address it listens on when
// the flag is not given) and the rejected invocations.
func TestFlagsAndErrors(t *testing.T) {
	for sub, want := range map[string][]string{
		"serve": {"cache-bytes", "cache-entries", "data-dir", "datasets", "flight-ring", "fsync",
			"ingest-batch", "ingest-interval", "ingest-queue", "ingest-rate", "ingest-replan",
			"log-format", "log-level", "max-concurrent", "max-queue", "quick", "rows", "scheme", "seed",
			"slow-query", "snapshot-every", "telemetry-addr", "tenant-quota", "weights", "width", "workload"},
		"load": {"dataset", "file", "ingest-batch", "offset", "schema", "seed", "server", "site", "source"},
	} {
		var errOut bytes.Buffer
		if err := run(context.Background(), []string{sub, "-h"}, &bytes.Buffer{}, &errOut); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: err = %v, want flag.ErrHelp", sub, err)
		}
		var got []string
		for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(errOut.String(), -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, want) {
			t.Errorf("bohrd %s flags = %v, want %v", sub, got, want)
		}
		if sub == "serve" && !regexp.MustCompile(`(?m)^  -telemetry-addr string\n.*\(default "127\.0\.0\.1:8080"\)$`).MatchString(errOut.String()) {
			t.Errorf("bohrd serve -h does not give -telemetry-addr the default it listens on:\n%s", errOut.String())
		}
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "usage: bohrd <serve|load>"},
		{[]string{"-quick"}, "usage: bohrd <serve|load>"},
		{[]string{"bake"}, `unknown subcommand "bake"`},
		{[]string{"serve", "-log-level", "loud"}, `unknown -log-level "loud"`},
		{[]string{"serve", "-log-format", "xml"}, `unknown -log-format "xml"`},
		{[]string{"serve", "-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"serve", "-scheme", "nope"}, `unknown scheme "nope"`},
		{[]string{"serve", "-datasets", "1", "-rows", "24", "-weights", "alice"}, `bad -weights entry "alice"`},
		{[]string{"serve", "-datasets", "1", "-rows", "24", "-weights", "alice=x"}, `bad weight in "alice=x"`},
		{[]string{"load", "-server", "http://127.0.0.1:1"}, "load needs -dataset and -schema"},
		{[]string{"load", "-dataset", "d", "-schema", "a"}, "load needs -server"},
		{[]string{"load", "-server", "http://127.0.0.1:1", "-dataset", "d", "-schema", "a", "-file", "/nonexistent.csv"}, "nonexistent.csv"},
	} {
		err := run(context.Background(), c.args, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bohrd %v: err = %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// TestCacheCaps holds -cache-entries / -cache-bytes at 0 to "no cap".
func TestCacheCaps(t *testing.T) {
	if c := cacheCaps(0, 0); c.Entries >= 0 || c.Bytes >= 0 {
		t.Errorf("cacheCaps(0, 0) = %+v, want cache.Unlimited()", c)
	}
	if c := cacheCaps(5, 100); c.Entries != 5 || c.Bytes != 100 {
		t.Errorf("cacheCaps(5, 100) = %+v", c)
	}
}
