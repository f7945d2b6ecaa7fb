package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
	"bohr/internal/obs/export"
	"bohr/internal/placement"
	"bohr/internal/sql"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

func clusterRecords(sys *core.System, dataset string) int {
	n := 0
	for i := 0; i < sys.Cluster.N(); i++ {
		n += len(sys.Cluster.Data[i].Records(dataset))
	}
	return n
}

// liveRecord builds one ingest record whose first coordinate lands in a
// recognizable "liveA" group; the remaining schema dims vary with the
// offset.
func liveRecord(sys *core.System, source string, off uint64, site int) ingest.Record {
	ds := sys.Workload.Datasets[0]
	coords := make([]string, ds.Schema.NumDims())
	coords[0] = "liveA"
	for j := 1; j < len(coords); j++ {
		coords[j] = fmt.Sprintf("c%d-%d", j, off%4)
	}
	return ingest.Record{
		Source: source, Offset: off, Dataset: ds.Name, Site: site,
		Coords: coords, Measure: 1,
	}
}

// TestIngestInvalidatesCachedQuery is the satellite-2 acceptance: a
// cached query result must not be served once new rows land for its
// dataset.
func TestIngestInvalidatesCachedQuery(t *testing.T) {
	sys := smallSystem(t)
	ds := sys.Workload.Datasets[0]
	col := obs.NewCollector(obs.WithWallClock())
	fe := New(NewEngineBackend(sys), Config{}, col)
	pipe, err := fe.EnableIngest(ingest.Config{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	dim := ds.Schema.Dims()[0]
	query := "SELECT " + dim + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dim
	if _, out := postQuery(t, ts.URL, "alice", query); out.Cached {
		t.Fatal("first query served from an empty cache")
	}
	if _, out := postQuery(t, ts.URL, "alice", query); !out.Cached {
		t.Fatal("repeat query not cached")
	}

	// New rows land for the dataset and deliver.
	if _, err := pipe.Push(context.Background(),
		liveRecord(sys, "src", 1, 0), liveRecord(sys, "src", 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, out := postQuery(t, ts.URL, "alice", query)
	if out.Cached {
		t.Fatal("stale cached result served after new rows landed")
	}
	found := false
	for _, row := range out.Rows {
		if strings.Contains(row.Key, "liveA") {
			found = true
			if row.Val != 2 {
				t.Fatalf("liveA sum = %v, want 2", row.Val)
			}
		}
	}
	if !found {
		t.Fatalf("fresh result misses the ingested group: %+v", out.Rows)
	}
	snap := col.MetricsSnapshot()
	if snap.Counters["serve.ingest.invalidations"] == 0 {
		t.Fatal("invalidation not counted")
	}
}

// TestContentHashTracksVersion pins what the result cache's key rests on
// now that the content hash is the dataset's store-version counter: it
// moves on every kind of mutation (ingest add, move-out, move-in,
// restore), on nothing else (queries, clones), and reading it allocates
// nothing.
func TestContentHashTracksVersion(t *testing.T) {
	sys := smallSystem(t)
	ds := sys.Workload.Datasets[0]
	b := NewEngineBackend(sys)
	ctx := context.Background()
	hash := func() uint64 {
		t.Helper()
		h, ok := b.ContentHash(ds.Name)
		if !ok {
			t.Fatalf("dataset %q has no content hash", ds.Name)
		}
		return h
	}
	versions := func() []uint64 {
		out := make([]uint64, sys.Cluster.N())
		for i := range out {
			out[i] = sys.Cluster.Data[i].Store(ds.Name).Version()
		}
		return out
	}
	h0 := hash()

	clone := sys.Cluster.Clone()
	for i, v := range versions() {
		if cv := clone.Data[i].Store(ds.Name).Version(); cv != v {
			t.Fatalf("site %d: unmutated clone at version %d, source at %d", i, cv, v)
		}
	}
	plan, err := sql.CompileString("SELECT COUNT(*) FROM "+ds.Name, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(ctx, plan); err != nil {
		t.Fatal(err)
	}
	if h := hash(); h != h0 {
		t.Fatalf("a query and a clone moved the content hash %d → %d", h0, h)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.ContentHash(ds.Name) }); allocs != 0 {
		t.Fatalf("ContentHash allocates %v times per call", allocs)
	}

	// Add.
	changed, err := b.ApplyBatch(ctx, ingest.Batch{Records: []ingest.Record{liveRecord(sys, "src", 1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != ds.Name {
		t.Fatalf("ApplyBatch changed %v, want [%s]", changed, ds.Name)
	}
	h1 := hash()
	if h1 == h0 {
		t.Fatal("an ingested row left the content hash unchanged")
	}

	// Move-out at the source, move-in at the destination, nothing elsewhere.
	before := versions()
	mv := engine.MoveSpec{Dataset: ds.Name, MB: sys.Cluster.MB(3)}
	for i := range before { // placement may have emptied a site: leave the fullest
		if len(sys.Cluster.Data[i].Records(ds.Name)) > len(sys.Cluster.Data[mv.Src].Records(ds.Name)) {
			mv.Src = i
		}
	}
	mv.Dst = (mv.Src + 1) % len(before)
	if res, err := sys.Cluster.ApplyMoves([]engine.MoveSpec{mv}, engine.RandomMover{}, stats.NewRand(1)); err != nil || res.Records == 0 {
		t.Fatalf("move: %+v, %v", res, err)
	}
	for i, v := range versions() {
		if moved := i == mv.Src || i == mv.Dst; (v > before[i]) != moved {
			t.Fatalf("site %d: version %d → %d across a %d→%d move", i, before[i], v, mv.Src, mv.Dst)
		}
	}
	h2 := hash()
	if h2 == h1 {
		t.Fatal("a move left the content hash unchanged")
	}

	// Restore, even of identical content.
	captured := b.CaptureState()
	if err := b.RestoreState(captured); err != nil {
		t.Fatal(err)
	}
	captured.Release() // the stores adopted the slices: Restore marks them
	if h3 := hash(); h3 == h2 || h3 == h1 || h3 == h0 {
		t.Fatalf("restore left the content hash at an earlier value: %d after %d, %d, %d", h3, h0, h1, h2)
	}
}

// TestApplyBatchReportsReplannedDatasets: a batch that triggers a live
// replan re-executes moves for every dataset, so ApplyBatch must name the
// datasets the batch never mentioned too, or their cached results strand
// under a dead key until LRU.
func TestApplyBatchReportsReplannedDatasets(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets = 2
	s.RowsPerSite = 120
	c, w, err := s.Populated(workload.BigDataScan, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(c, w, placement.Bohr, s.PlacementOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SetReplanEvery(1)
	b := NewEngineBackend(sys)
	hashes := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, ds := range w.Datasets {
			out[ds.Name], _ = b.ContentHash(ds.Name)
		}
		return out
	}
	before := hashes()
	changed, err := b.ApplyBatch(context.Background(), ingest.Batch{Records: []ingest.Record{liveRecord(sys, "src", 1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ds := range w.Datasets {
		if h, _ := b.ContentHash(ds.Name); h != before[ds.Name] {
			want = append(want, ds.Name)
		}
	}
	if len(want) != 2 {
		t.Fatalf("the replan moved only %v; the test needs it to reach the dataset the batch did not name", want)
	}
	if !slices.Equal(changed, want) {
		t.Fatalf("ApplyBatch reported %v, datasets whose content hash moved: %v", changed, want)
	}
}

// lateCancel is a context cancelled after its first check: Err reports
// nil once, then context.Canceled — between IngestBatch's entry check
// and its replan.
type lateCancel struct {
	context.Context
	calls int
}

func (c *lateCancel) Err() error {
	if c.calls++; c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestAckedBatchAppliesOnce: a batch whose cadence replan fails after the
// rows landed is delivered, not requeued, so a second flush has nothing
// to apply and the dataset grows by the acked records, once.
func TestAckedBatchAppliesOnce(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 1, 120
	col := obs.NewCollector()
	sys := prepareSystem(t, s, col)
	sys.SetReplanEvery(1)
	ds := sys.Workload.Datasets[0]
	fe := New(NewEngineBackend(sys), Config{}, col)
	pipe, err := fe.EnableIngest(ingest.Config{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	before := clusterRecords(sys, ds.Name)
	for off := uint64(1); off <= 5; off++ {
		if _, err := pipe.Push(context.Background(), liveRecord(sys, "src", off, 0)); err != nil {
			t.Fatal(err)
		}
	}
	late := pipe.Flush(&lateCancel{Context: context.Background()})
	next := pipe.Flush(context.Background())
	if got := clusterRecords(sys, ds.Name) - before; got != 5 || late != nil || next != nil {
		t.Fatalf("the dataset grew by %d records for 5 acked (flushes: %v, %v)", got, late, next)
	}
	if got := col.MetricsSnapshot().Counters["core.ingest.replan_errors"]; got != 1 {
		t.Fatalf("core.ingest.replan_errors = %v, want 1", got)
	}
}

// TestApplyBatchKeepsDaemonTraceFlat: each batch runs under its own
// collector, so the system's trace does not grow with the batches it
// applies (replans included) while their counters and histograms still
// reach it as counters and histograms.
func TestApplyBatchKeepsDaemonTraceFlat(t *testing.T) {
	s := experiments.QuickSetup()
	s.Datasets, s.RowsPerSite = 1, 120
	col := obs.NewCollector(obs.WithWallClock())
	sys := prepareSystem(t, s, col)
	sys.SetReplanEvery(2)
	b := NewEngineBackend(sys)
	was, solves := spanCount(col.Trace()), col.MetricsSnapshot().Histograms["lp.solve.rounds"].Count
	const n = 6
	for i := range n {
		if _, err := b.ApplyBatch(context.Background(), ingest.Batch{Records: []ingest.Record{liveRecord(sys, "src", uint64(i+1), i%2)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := spanCount(col.Trace()); got != was {
		t.Fatalf("%d batches took the trace from %d spans to %d", n, was, got)
	}
	snap := col.MetricsSnapshot()
	if snap.Counters["core.ingest.batches"] != n || snap.Counters["core.ingest.replans"] != n/2 {
		t.Fatalf("core.ingest.batches = %v, .replans = %v; want %d, %d", snap.Counters["core.ingest.batches"], snap.Counters["core.ingest.replans"], n, n/2)
	}
	if got := snap.Histograms["lp.solve.rounds"].Count; got <= solves || snap.Counters["lp.solve.rounds.count"] != 0 {
		t.Fatalf("lp.solve.rounds: %d observations after %d, and %v folded into a counter; want the replans' solves observed", got, solves, snap.Counters["lp.solve.rounds.count"])
	}
}

// applierShim adds a trivial RowApplier to the fakeBackend so endpoint
// plumbing can be tested without a real system.
type applierShim struct {
	*fakeBackend
	mu   sync.Mutex
	got  []ingest.Record
	fail error
}

func (a *applierShim) ApplyBatch(ctx context.Context, b ingest.Batch) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fail != nil {
		return nil, a.fail
	}
	a.got = append(a.got, b.Records...)
	seen := map[string]bool{}
	var names []string
	for _, r := range b.Records {
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			names = append(names, r.Dataset)
		}
	}
	return names, nil
}

func TestServeIngestEndpoint(t *testing.T) {
	backend := &applierShim{fakeBackend: newFakeBackend(t)}
	fe := New(backend, Config{}, nil)
	ts := httptest.NewServer(fe.Handler())
	defer ts.Close()

	// Before EnableIngest the endpoint is 503.
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("s|1|logs|0|1|a|b"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-enable status = %d, want 503", resp.StatusCode)
	}

	pipe, err := fe.EnableIngest(ingest.Config{FlushInterval: -1, MaxPending: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	// GET is 405.
	resp, err = http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}

	// Undecodable body is 400.
	resp, err = http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader("not a record"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}

	// A good batch lands with counts.
	body := string(ingest.EncodeBatch([]ingest.Record{
		{Source: "s", Offset: 1, Dataset: "logs", Site: 0, Coords: []string{"a", "b"}, Measure: 1},
		{Source: "s", Offset: 2, Dataset: "logs", Site: 0, Coords: []string{"c", "d"}, Measure: 2},
	}))
	resp, err = http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr ingest.PushResponse
	json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Accepted != 2 || pr.Deduped != 0 {
		t.Fatalf("push: status %d, %+v", resp.StatusCode, pr)
	}

	// Overflowing MaxPending yields 429 with the partial count.
	var lines strings.Builder
	for off := 3; off <= 10; off++ {
		lines.WriteString(ingest.EncodeRecord(ingest.Record{
			Source: "s", Offset: uint64(off), Dataset: "logs", Site: 0,
			Coords: []string{"x", "y"}, Measure: 1,
		}))
		lines.WriteByte('\n')
	}
	resp, err = http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	pr = ingest.PushResponse{}
	json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if pr.Accepted != 2 || pr.Error == "" {
		t.Fatalf("overload response %+v, want 2 accepted (cap 4) and an error", pr)
	}
}

func TestEnableIngestRequiresRowApplier(t *testing.T) {
	fe := New(newFakeBackend(t), Config{}, nil)
	if _, err := fe.EnableIngest(ingest.Config{}); err == nil {
		t.Fatal("EnableIngest accepted a backend without ApplyBatch")
	}
}

// faultInjector drops every third /v1/ingest request by aborting the
// connection before the handler runs — the client sees a transport error
// and must retry.
type faultInjector struct {
	inner http.Handler
	mu    sync.Mutex
	n     int
	drops int
}

func (f *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/ingest" {
		f.mu.Lock()
		f.n++
		drop := f.n%3 == 0
		if drop {
			f.drops++
		}
		f.mu.Unlock()
		if drop {
			panic(http.ErrAbortHandler)
		}
	}
	f.inner.ServeHTTP(w, r)
}

// TestIngestEndToEndChaos is the PR's acceptance scenario: a source
// streams records through the HTTP endpoint while every third request is
// dropped on the floor, and the source itself restarts mid-stream and
// replays from offset 1. Despite drops, retries, and the replay, no
// record is lost or double-applied, the dedupe counters match the
// replayed offsets, live replans fire, and a previously cached query
// returns fresh results.
func TestIngestEndToEndChaos(t *testing.T) {
	sys := smallSystem(t)
	sys.SetReplanEvery(3)
	ds := sys.Workload.Datasets[0]
	col := obs.NewCollector(obs.WithWallClock())
	fe := New(NewEngineBackend(sys), Config{}, col)
	// Batches of 10 with no timer: deliveries ride the size trigger, so
	// the 60-record stream applies as exactly 6 batches and the replan
	// cadence (every 3) fires twice.
	pipe, err := fe.EnableIngest(ingest.Config{MaxBatchRecords: 10, FlushInterval: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exp := export.New(col)
	exp.Handle("/v1/", fe.Handler())
	inj := &faultInjector{inner: exp.Handler()}
	ts := httptest.NewServer(inj)

	baseline := runtime.NumGoroutine()
	before := clusterRecords(sys, ds.Name)
	dim := ds.Schema.Dims()[0]
	query := "SELECT " + dim + ", SUM(measure) FROM " + ds.Name + " GROUP BY " + dim

	// Warm the result cache.
	postQuery(t, ts.URL, "alice", query)
	if _, out := postQuery(t, ts.URL, "alice", query); !out.Cached {
		t.Fatal("warm-up query not cached")
	}

	const total, crashAt = 60, 30
	ctx := context.Background()
	ccfg := ingest.ClientConfig{BatchRecords: 10, Seed: 5}
	stream := func(cli *ingest.Client, from, to uint64) {
		t.Helper()
		for off := from; off <= to; off++ {
			r := liveRecord(sys, "web-tier", off, int(off)%sys.Cluster.N())
			if err := cli.Add(ctx, r.Dataset, r.Site, r.Coords, r.Measure); err != nil {
				t.Fatalf("offset %d: %v", off, err)
			}
		}
		if err := cli.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// First incarnation delivers offsets 1..30, then "crashes" having lost
	// its cursor.
	stream(ingest.NewClient(ts.URL+"/v1/ingest", "web-tier", ccfg), 1, crashAt)
	// The restart replays the whole stream from offset 1 and continues to
	// 60: offsets 1..30 are dupes, 31..60 fresh.
	cli2 := ingest.NewClient(ts.URL+"/v1/ingest", "web-tier", ccfg)
	stream(cli2, 1, total)
	// Deliver everything buffered.
	if err := pipe.Flush(ctx); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	// Zero lost, zero double-applied.
	if got := clusterRecords(sys, ds.Name); got != before+total {
		t.Fatalf("cluster gained %d records, want %d", got-before, total)
	}
	st := pipe.Stats()
	if st.Accepted != total {
		t.Fatalf("accepted %d, want %d", st.Accepted, total)
	}
	if st.Deduped != crashAt {
		t.Fatalf("deduped %d, want %d (the replayed prefix)", st.Deduped, crashAt)
	}
	if w := pipe.Watermark("web-tier"); w != total {
		t.Fatalf("watermark %d, want %d", w, total)
	}
	if cst := cli2.Stats(); cst.Deduped != crashAt || cst.Accepted != total-crashAt {
		t.Fatalf("client replay stats %+v", cst)
	}
	inj.mu.Lock()
	drops := inj.drops
	inj.mu.Unlock()
	if drops == 0 {
		t.Fatal("fault injector never fired; the test exercised nothing")
	}
	// Live replans fired on the configured cadence.
	if sys.IngestReplans() == 0 {
		t.Fatalf("no live replans after %d batches with cadence 3", sys.IngestBatches())
	}

	// The previously cached query returns fresh results.
	_, out := postQuery(t, ts.URL, "alice", query)
	if out.Cached {
		t.Fatal("stale cached result served after sustained ingest")
	}
	sum := 0.0
	for _, row := range out.Rows {
		if strings.Contains(row.Key, "liveA") {
			sum += row.Val
		}
	}
	if sum != total {
		t.Fatalf("liveA group sums to %v, want %d (each record counted once)", sum, total)
	}

	snap := col.MetricsSnapshot()
	if snap.Counters["ingest.accepted"] != total || snap.Counters["ingest.replay.deduped"] != crashAt {
		t.Fatalf("obs counters: accepted %v deduped %v", snap.Counters["ingest.accepted"], snap.Counters["ingest.replay.deduped"])
	}
	if snap.Counters["serve.ingest.invalidations"] == 0 {
		t.Fatal("cache invalidations not counted")
	}

	// Daemon shutdown: the HTTP server and the pipeline close without
	// leaking goroutines.
	ts.Close()
	if err := pipe.Close(); err != nil {
		t.Fatalf("pipeline close: %v", err)
	}
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
