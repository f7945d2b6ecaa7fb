// Live-daemon tooling: `bohrctl top` renders a refreshing operational
// dashboard from a bohrd serve daemon's /v1/stats document (windowed
// throughput and latency percentiles, scheduler and ingest depths), and
// `bohrctl tail` streams the flight recorder's recent and slow query
// records from /v1/debug/flightrec.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"bohr/internal/cliflags"
	"bohr/internal/obs/critpath"
	"bohr/internal/obs/window"
	"bohr/internal/serve"
)

// fetchJSON GETs url and decodes the JSON body into out.
func fetchJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runTop is `bohrctl top`: it redraws the dashboard every -interval until
// ctx ends, or draws it once.
func runTop(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliflags.FlagSet("bohrctl top", stderr)
	var (
		server   = fs.String("server", "http://127.0.0.1:8080", "bohrd serve base URL")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
		win      = fs.String("window", "10s", "window to render (10s, 1m, 5m)")
		once     = fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	url := strings.TrimRight(*server, "/") + "/v1/stats"
	for {
		var doc serve.StatsDoc
		err := fetchJSON(ctx, client, url, &doc)
		if ctx.Err() != nil {
			return nil
		}
		if !*once {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J") // cursor home + clear screen
		}
		if err != nil {
			fmt.Fprintf(stdout, "bohrctl top: %v (retrying every %v)\n", err, *interval)
		} else {
			renderTop(stdout, &doc, *win, *server)
		}
		if *once {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// renderTop prints one dashboard frame from a stats document.
func renderTop(w io.Writer, doc *serve.StatsDoc, win, server string) {
	fmt.Fprintf(w, "bohrd %s  up %s  window %s  (refreshed %s)\n\n",
		server, (time.Duration(doc.UptimeS * float64(time.Second))).Round(time.Second),
		win, time.Now().Format("15:04:05"))
	if doc.Windows == nil {
		fmt.Fprintln(w, "windowed metrics not enabled on this daemon")
	} else {
		req := doc.Windows.Counters["serve.requests"][win]
		hits := doc.Windows.Counters["serve.cache.hits"][win]
		lat := doc.Windows.Histograms["serve.latency_s"][win]
		hitPct := 0.0
		if req.Sum > 0 {
			hitPct = 100 * hits.Sum / req.Sum
		}
		fmt.Fprintf(w, "queries   %8.1f/s   (%d in window, cache hit %.0f%%)\n",
			req.Rate, int(req.Sum), hitPct)
		fmt.Fprintf(w, "latency   p50 %s  p90 %s  p99 %s  max %s\n",
			fmtSec(lat.P50), fmtSec(lat.P90), fmtSec(lat.P99), fmtSec(lat.Max))
		ing := doc.Windows.Counters["ingest.accepted"][win]
		e2e := doc.Windows.Histograms["ingest.batch_e2e_s"][win]
		fmt.Fprintf(w, "ingest    %8.1f rec/s  batch e2e p99 %s\n", ing.Rate, fmtSec(e2e.P99))
	}
	fmt.Fprintf(w, "\nsched     inflight %d  queued %d      cache entries %d\n",
		doc.Sched.Inflight, doc.Sched.QueueDepth, doc.Cache.Entries)
	if doc.Flight != nil {
		fmt.Fprintf(w, "flightrec %d recorded, %d in ring, %d slow traces held (threshold %s)\n",
			doc.Flight.Recorded, doc.Flight.RingLen, doc.Flight.SlowHeld,
			fmtSec(doc.Flight.SlowThresholdS))
	}
	if len(doc.IngestSources) > 0 {
		fmt.Fprintf(w, "\n%-20s %10s %8s %8s %10s %8s %12s\n",
			"SOURCE", "WATERMARK", "SPARSE", "PENDING", "ACCEPTED", "DEDUPE%", "BATCH E2E")
		for _, s := range doc.IngestSources {
			fmt.Fprintf(w, "%-20s %10d %8d %8d %10d %7.1f%% %12s\n",
				s.Source, s.Watermark, s.Sparse, s.Pending, s.Accepted,
				100*s.DedupeRate, fmtSec(s.LastBatchE2ES))
		}
	}
	if doc.Windows != nil {
		renderTenants(w, doc.Windows, win)
	}
}

// renderTenants lists per-tenant windowed request rates and p99, derived
// from the serve.tenant.<t>.* series the serving path maintains.
func renderTenants(w io.Writer, snap *window.Snapshot, win string) {
	var tenants []string
	for name := range snap.Counters {
		if t, ok := tenantOf(name, ".requests"); ok {
			tenants = append(tenants, t)
		}
	}
	if len(tenants) == 0 {
		return
	}
	sort.Strings(tenants)
	fmt.Fprintf(w, "\n%-20s %10s %10s %10s %10s\n", "TENANT", "REQ/S", "REQS", "P99", "INFLIGHT")
	for _, t := range tenants {
		req := snap.Counters["serve.tenant."+t+".requests"][win]
		lat := snap.Histograms["serve.tenant."+t+".latency_s"][win]
		fmt.Fprintf(w, "%-20s %10.1f %10d %10s %10.0f\n",
			t, req.Rate, int(req.Sum), fmtSec(lat.P99),
			snap.Gauges["serve.tenant."+t+".inflight"])
	}
}

// tenantOf extracts the tenant label from a serve.tenant.<t><suffix> name.
func tenantOf(name, suffix string) (string, bool) {
	const prefix = "serve.tenant."
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return "", false
	}
	t := name[len(prefix) : len(name)-len(suffix)]
	if t == "" || strings.Contains(t, ".") {
		return "", false
	}
	return t, true
}

// fmtSec renders a seconds value at a latency-friendly precision.
func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1000)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// runTail is `bohrctl tail`: it prints the flight recorder's recent
// records (and, first, the slow ones), then with -follow keeps polling
// until ctx ends.
func runTail(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliflags.FlagSet("bohrctl tail", stderr)
	var (
		server   = fs.String("server", "http://127.0.0.1:8080", "bohrd serve base URL")
		follow   = fs.Bool("follow", false, "keep polling for new records (like tail -f)")
		interval = fs.Duration("interval", time.Second, "poll interval with -follow")
		limit    = fs.Int("limit", 20, "max recent records per fetch")
		slow     = fs.Bool("slow", true, "print the retained slow queries with critical paths")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimRight(*server, "/") + "/v1/debug/flightrec"
	var cursor uint64
	first := true
	for {
		// Only the first fetch pulls the slow set; follow polls just page
		// new recent records past the cursor.
		url := fmt.Sprintf("%s?after=%d&limit=%d", base, cursor, *limit)
		if !first || !*slow {
			url += "&slow=0"
		}
		var doc serve.FlightDoc
		err := fetchJSON(ctx, client, url, &doc)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			if !*follow {
				return err
			}
			fmt.Fprintf(stderr, "bohrctl tail: %v\n", err)
		}
		if first {
			fmt.Fprintf(stdout, "%-19s %-15s %-12s %-10s %-9s %8s %8s %6s\n",
				"TIME", "TRACE", "TENANT", "DATASET", "STATUS", "LATENCY", "QWAIT", "CACHED")
		}
		for _, r := range doc.Recent {
			printRecord(stdout, r)
			if r.Seq > cursor {
				cursor = r.Seq
			}
		}
		if first && *slow && len(doc.Slow) > 0 {
			fmt.Fprintf(stdout, "\nslowest retained queries (full traces held):\n")
			for _, s := range doc.Slow {
				fmt.Fprintf(stdout, "\n#%d %s tenant=%s %s latency=%s\n  stmt: %s\n",
					s.Seq, s.TraceID, s.Tenant, s.Dataset, fmtSec(s.LatencyS), s.Stmt)
				if len(s.CritPath) > 0 {
					for _, line := range strings.Split(strings.TrimRight(critpath.Format(s.CritPath), "\n"), "\n") {
						fmt.Fprintf(stdout, "  %s\n", line)
					}
				}
			}
			if *follow {
				fmt.Fprintln(stdout)
			}
		}
		if !*follow {
			return nil
		}
		first = false
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// printRecord renders one flight-recorder line.
func printRecord(w io.Writer, r serve.QueryRecord) {
	ts := r.Start
	if t, err := time.Parse(time.RFC3339Nano, r.Start); err == nil {
		ts = t.Local().Format("2006-01-02 15:04:05")
	}
	status := r.Status
	if r.Slow {
		status += "*"
	}
	cached := ""
	if r.Cached {
		cached = "yes"
	}
	fmt.Fprintf(w, "%-19s %-15s %-12s %-10s %-9s %8s %8s %6s\n",
		ts, r.TraceID, clip(r.Tenant, 12), clip(r.Dataset, 10), status,
		fmtSec(r.LatencyS), fmtSec(r.QueueWaitS), cached)
	if r.Err != "" {
		fmt.Fprintf(w, "    error: %s\n", clip(r.Err, 120))
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
