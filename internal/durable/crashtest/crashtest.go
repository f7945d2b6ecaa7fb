// Package crashtest is a crash-consistency harness for the durable
// ingest path. It drives a real bohrd serve process over a durability
// directory, SIGKILLs it at seeded points (optionally appending a torn
// tail to the newest WAL segment first) or interrupts it for an orderly
// shutdown, restarts it on the same directory, and checks the recovery
// invariants: no acked record is lost, no record is applied twice, and a
// pinned query answers byte-identically after recovery.
//
// The harness is deliberately end-to-end: records travel through the
// real HTTP ingest endpoint, the real WAL and snapshot files, and a
// real process boundary, so fsync ordering bugs that in-process tests
// cannot see (acks racing the journal, partial tail writes) surface
// here.
package crashtest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bohr/internal/ingest"
)

// Dataset is the single dataset a quick bigdata-scan setup with
// -datasets 1 serves.
const Dataset = "amplab-000"

// Sites is the quick-setup cluster size.
const Sites = 4

// startTimeout bounds how long a child bohrd may take to print its
// serving line (placement runs before the listener comes up).
const startTimeout = 60 * time.Second

// DaemonConfig configures one child bohrd serve process.
type DaemonConfig struct {
	// Bin is the path to a built bohrd binary.
	Bin string
	// DataDir is the durability directory (-data-dir).
	DataDir string
	// SnapshotEvery is the cadence snapshot interval in applied batches
	// (0 disables cadence snapshots, leaving pure WAL replay).
	SnapshotEvery int
	// Stderr collects the child's stderr — recovery summaries land
	// there, so keep it for failure diagnostics.
	Stderr io.Writer
}

// Daemon is one running child bohrd.
type Daemon struct {
	// Base is the serving base URL, e.g. "http://127.0.0.1:41234".
	Base string

	cmd      *exec.Cmd
	done     chan error
	killOnce sync.Once
}

// StartDaemon launches bohrd serve on the config's data directory and
// waits for its serving line. The workload flags are pinned (quick
// setup, one dataset, fixed seed, no live replans) so every start of
// the same directory reconstructs the same seed state and recovery
// divergence is attributable to durability bugs alone.
func StartDaemon(ctx context.Context, cfg DaemonConfig) (*Daemon, error) {
	args := []string{
		"serve",
		"-quick", "-datasets", "1", "-rows", "24", "-seed", "7",
		"-scheme", "bohr",
		"-telemetry-addr", "127.0.0.1:0",
		"-data-dir", cfg.DataDir,
		"-fsync=true",
		"-snapshot-every", strconv.Itoa(cfg.SnapshotEvery),
		"-ingest-batch", "8",
		"-ingest-interval", "20ms",
		"-ingest-replan", "0",
	}
	cmd := exec.CommandContext(ctx, cfg.Bin, args...)
	cmd.Stderr = cfg.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bohrd: %w", err)
	}
	d := &Daemon{cmd: cmd, done: make(chan error, 1)}
	baseCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			i := strings.Index(line, "on http://")
			j := strings.Index(line, "/v1/query")
			if i >= 0 && j > i {
				select {
				case baseCh <- line[i+len("on ") : j]:
				default:
				}
			}
		}
	}()
	go func() { d.done <- cmd.Wait() }()
	select {
	case base := <-baseCh:
		d.Base = base
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("bohrd exited before serving: %v", err)
	case <-time.After(startTimeout):
		d.Kill()
		return nil, fmt.Errorf("bohrd did not serve within %s", startTimeout)
	case <-ctx.Done():
		d.Kill()
		return nil, ctx.Err()
	}
}

// Kill SIGKILLs the child and reaps it. Idempotent, so tests can defer
// it as cleanup after already killing mid-trial.
func (d *Daemon) Kill() {
	d.killOnce.Do(func() {
		d.cmd.Process.Kill()
		<-d.done
	})
}

// Interrupt sends the child os.Interrupt — the orderly shutdown, which
// drains the pipeline and cuts a final snapshot — and waits up to timeout
// for it to exit, returning how it exited. After a timeout it kills it.
func (d *Daemon) Interrupt(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		d.killOnce.Do(func() {}) // reaped: a later Kill has nothing to do
		return err
	case <-time.After(timeout):
		d.Kill()
		return fmt.Errorf("bohrd did not exit within %s of an interrupt", timeout)
	}
}

// Stream sends deterministic records for one source at a daemon's
// ingest endpoint in fixed-size batches.
type Stream struct {
	Base      string
	Source    string
	BatchSize int
	// Pace inserts a delay between batches, stretching the stream so a
	// concurrent kill can land mid-request instead of after the last
	// ack (localhost pushes complete in microseconds otherwise).
	Pace time.Duration

	hc http.Client
}

// Rec builds the record at one 1-based offset. The mapping is pure, so
// a client restarted after a crash regenerates byte-identical resends,
// and expected query results are computable without tracking state.
func Rec(source string, off uint64) ingest.Record {
	return ingest.Record{
		Source:  source,
		Offset:  off,
		Dataset: Dataset,
		Site:    int((off - 1) % Sites),
		Measure: 1,
		Coords: []string{
			fmt.Sprintf("live-u%d", off%5),
			fmt.Sprintf("live-c%d", off%3),
			fmt.Sprintf("%02d", off%24),
		},
	}
}

// ExpectedURLCounts is the url -> COUNT(*) contribution of offsets
// 1..total under Rec's mapping: the oracle for the zero-loss /
// zero-double-apply check.
func ExpectedURLCounts(total uint64) map[string]int {
	m := map[string]int{}
	for off := uint64(1); off <= total; off++ {
		m[fmt.Sprintf("live-u%d", off%5)]++
	}
	return m
}

// SendRange pushes offsets [from, to] batch by batch and returns the
// highest offset through which every batch was acked. A send error
// (daemon killed mid-request) returns the acked high-water mark with
// the error — the caller resumes from acked+1 after restart.
func (s *Stream) SendRange(ctx context.Context, from, to uint64) (uint64, error) {
	acked := from - 1
	for lo := from; lo <= to; {
		hi := min(lo+uint64(s.BatchSize)-1, to)
		recs := make([]ingest.Record, 0, hi-lo+1)
		for off := lo; off <= hi; off++ {
			recs = append(recs, Rec(s.Source, off))
		}
		if err := s.push(ctx, recs); err != nil {
			return acked, err
		}
		acked = hi
		lo = hi + 1
		if s.Pace > 0 && lo <= to {
			time.Sleep(s.Pace)
		}
	}
	return acked, nil
}

// push sends one batch. The batch counts as acked only on a clean 200
// with every record accounted for; 429 backs off and resends the whole
// batch (offset dedupe makes that safe).
func (s *Stream) push(ctx context.Context, recs []ingest.Record) error {
	body := ingest.EncodeBatch(recs)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			s.Base+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "text/plain")
		resp, err := s.hc.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var pr ingest.PushResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			return fmt.Errorf("push: status %d: undecodable body %q", resp.StatusCode, data)
		}
		if resp.StatusCode == http.StatusOK && pr.Error == "" &&
			pr.Accepted+pr.Deduped == len(recs) {
			return nil
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		return fmt.Errorf("push: status %d: %s", resp.StatusCode, data)
	}
}

// statsDoc is the slice of /v1/stats the harness reads.
type statsDoc struct {
	IngestPending int `json:"ingest_pending"`
	IngestSources []struct {
		Source    string `json:"source"`
		Watermark uint64 `json:"watermark"`
		Pending   int    `json:"pending"`
	} `json:"ingest_sources"`
}

func fetchStats(ctx context.Context, base string) (*statsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// SourceWatermark reads one source's contiguous accepted-offset
// watermark from /v1/stats. Right after a restart this is the recovered
// position — the direct witness that acked offsets survived the crash.
func SourceWatermark(ctx context.Context, base, source string) (uint64, error) {
	doc, err := fetchStats(ctx, base)
	if err != nil {
		return 0, err
	}
	for _, src := range doc.IngestSources {
		if src.Source == source {
			return src.Watermark, nil
		}
	}
	return 0, nil
}

// WaitApplied polls /v1/stats until the source's watermark reaches
// target and the pipeline has drained its buffers — i.e. every sent
// record is applied, not merely admitted.
func WaitApplied(ctx context.Context, base, source string, target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last := "no stats yet"
	for {
		doc, err := fetchStats(ctx, base)
		if err == nil {
			var wm uint64
			pending := doc.IngestPending
			for _, src := range doc.IngestSources {
				if src.Source == source {
					wm = src.Watermark
					pending += src.Pending
				}
			}
			if wm >= target && pending == 0 {
				return nil
			}
			last = fmt.Sprintf("watermark %d/%d, pending %d", wm, target, pending)
		} else {
			last = err.Error()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not applied within %s: %s", timeout, last)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Row is one pinned-query result row.
type Row struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

// PinnedQuery runs the recovery-pinned statement — COUNT(*) per url
// over the served dataset — and returns the raw bytes of the response's
// rows field (for byte-identity checks; the envelope's cached/elapsed
// fields are legitimately nondeterministic) plus the decoded rows.
func PinnedQuery(ctx context.Context, base string) ([]byte, []Row, error) {
	payload, err := json.Marshal(map[string]any{
		"tenant": "crash",
		"query":  fmt.Sprintf("SELECT url, COUNT(*) FROM %s GROUP BY url", Dataset),
	})
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/query", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("query: status %d: %s", resp.StatusCode, data)
	}
	var doc struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, err
	}
	var rows []Row
	if err := json.Unmarshal(doc.Rows, &rows); err != nil {
		return nil, nil, err
	}
	return doc.Rows, rows, nil
}

// InjectTornTail appends garbage bytes to the newest WAL segment,
// simulating a write that the crash cut short. It must append, never
// truncate: truncating would destroy fsynced frames backing acked
// records, which is a disk failure, not a crash. Returns the segment
// path it tore.
func InjectTornTail(dir string, garbage []byte) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no wal segments in %s", dir)
	}
	sort.Strings(names)
	last := names[len(names)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(garbage); err != nil {
		f.Close()
		return "", err
	}
	return last, f.Close()
}
