package export

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bohr/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func startServer(t *testing.T, col *obs.Collector) string {
	t.Helper()
	s := New(col)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promLine accepts one Prometheus text-exposition sample line:
// name, optional {labels}, space, float value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? [-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?$`)

func TestMetricsExposition(t *testing.T) {
	col := obs.NewCollector()
	col.Count("netio.retries", 3)
	col.Count("wan.move.site-0->site-2.mb", 1.5)
	col.Gauge("placement.sites", 4)
	for i := 1; i <= 100; i++ {
		col.Observe("netio.query.elapsed_s", float64(i))
	}
	addr := startServer(t, col)

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("unexpected comment line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE bohr_netio_retries counter\nbohr_netio_retries 3\n",
		"bohr_wan_move_site_0__site_2_mb 1.5\n",
		"# TYPE bohr_placement_sites gauge\nbohr_placement_sites 4\n",
		"# TYPE bohr_netio_query_elapsed_s summary\n",
		"bohr_netio_query_elapsed_s{quantile=\"0.5\"} 50\n",
		"bohr_netio_query_elapsed_s{quantile=\"0.99\"} 99\n",
		"bohr_netio_query_elapsed_s_sum 5050\n",
		"bohr_netio_query_elapsed_s_count 100\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, body)
		}
	}
}

func TestHealthzAndPprof(t *testing.T) {
	addr := startServer(t, obs.NewCollector())
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("GET /healthz = %d %q", code, body)
	}
	code, body = get(t, "http://"+addr+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}
}

// TestConcurrentScrapes exercises scrape-during-write under -race: the
// registry keeps filling while clients scrape.
func TestConcurrentScrapes(t *testing.T) {
	col := obs.NewCollector()
	addr := startServer(t, col)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				col.Count(fmt.Sprintf("c%d", g), 1)
				col.Observe("h", float64(i))
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape = %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerLifecycle(t *testing.T) {
	s := New(nil)
	if s.Addr() != "" {
		t.Fatal("address before Start")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", s.Addr(), addr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// chromeFixture is a deterministic stand-in for a trace: modeled engine
// spans, with a "run" of concurrent queries.
func chromeFixture() *obs.Span {
	return &obs.Span{Name: "bohr", Children: []*obs.Span{
		{Name: "prepare", Modeled: 2},
		{Name: "run", Modeled: 10, Children: []*obs.Span{
			{Name: "q00:scan", Modeled: 6, Children: []*obs.Span{
				{Name: "map", Modeled: 2},
				{Name: "shuffle", Modeled: 3},
				{Name: "reduce", Modeled: 1},
			}},
			{Name: "q01:agg", Modeled: 4, Children: []*obs.Span{
				{Name: "map", Modeled: 1.5},
				{Name: "reduce", Modeled: 2.5},
			}},
		}},
	}}
}

func TestChromeTraceGolden(t *testing.T) {
	got, err := ChromeTrace(chromeFixture())
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("Chrome trace drifted from golden file.\nIf intentional, regenerate with -update.\ngot:\n%s", got)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	out, err := ChromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"traceEvents": []`) {
		t.Fatalf("nil trace = %s", out)
	}
}

// TestChromeTraceWallTimeline: a tree that carries any wall-clock duration
// is laid out a second time as process 1, on wall durations, and a tree
// without one is not.
func TestChromeTraceWallTimeline(t *testing.T) {
	decode := func(root *obs.Span) []chromeEvent {
		out, err := ChromeTrace(root)
		if err != nil {
			t.Fatal(err)
		}
		var f chromeFile
		if err := json.Unmarshal(out, &f); err != nil {
			t.Fatal(err)
		}
		return f.TraceEvents
	}
	for _, ev := range decode(chromeFixture()) {
		if ev.Pid == pidWall {
			t.Fatalf("a modeled-only tree has a wall event %+v", ev)
		}
	}
	root := &obs.Span{Name: "serve", Children: []*obs.Span{
		{Name: "query", Wall: 0.003, Modeled: 2},
		{Name: "encode", Wall: 0.001},
	}}
	var wall []chromeEvent
	for _, ev := range decode(root) {
		if ev.Pid == pidWall && ev.Ph == "X" {
			wall = append(wall, ev)
		}
	}
	want := []chromeEvent{
		{Name: "serve", Ph: "X", Ts: 0, Dur: 4000, Pid: pidWall, Tid: 1},
		{Name: "query", Ph: "X", Ts: 0, Dur: 3000, Pid: pidWall, Tid: 1},
		{Name: "encode", Ph: "X", Ts: 3000, Dur: 1000, Pid: pidWall, Tid: 1},
	}
	if fmt.Sprint(wall) != fmt.Sprint(want) {
		t.Fatalf("wall timeline %+v, want %+v", wall, want)
	}
}
