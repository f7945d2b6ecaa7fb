package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bohr/internal/obs"
)

// recApplier records delivered batches and can be told to fail the next N
// applies (transiently or permanently).
type recApplier struct {
	mu        sync.Mutex
	batches   []Batch
	failNext  int
	permanent bool
	applies   int
}

func (a *recApplier) Apply(ctx context.Context, b Batch) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applies++
	if a.failNext > 0 {
		a.failNext--
		if a.permanent {
			return Reject(errors.New("bad batch"))
		}
		return errors.New("transient fault")
	}
	cp := b
	cp.Records = append([]Record(nil), b.Records...)
	a.batches = append(a.batches, cp)
	return nil
}

func (a *recApplier) delivered() []Batch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Batch(nil), a.batches...)
}

func (a *recApplier) attempts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applies
}

func (a *recApplier) records() int {
	n := 0
	for _, b := range a.delivered() {
		n += len(b.Records)
	}
	return n
}

func rec(source string, off uint64) Record {
	return Record{Source: source, Offset: off, Dataset: "ds", Site: 0,
		Coords: []string{fmt.Sprint(off)}, Measure: 1}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPipelineSizeTriggeredFlush(t *testing.T) {
	app := &recApplier{}
	p := New(Config{MaxBatchRecords: 4, FlushInterval: -1}, app, nil)
	defer p.Close()
	for off := uint64(1); off <= 4; off++ {
		if _, err := p.Push(context.Background(), rec("s", off)); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	// No timer: the only trigger is the full buffer.
	waitFor(t, "size-triggered delivery", func() bool { return app.records() == 4 })
	got := app.delivered()
	if len(got) != 1 || got[0].Source != "s" {
		t.Fatalf("delivered %+v, want one 4-record batch from s", got)
	}
	for i, r := range got[0].Records {
		if r.Offset != uint64(i+1) {
			t.Fatalf("batch out of order: %+v", got[0].Records)
		}
	}
	if st := p.Stats(); st.BatchesFlushed != 1 || st.RecordsDelivered != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPipelineIntervalFlushDeliversPartialBatch(t *testing.T) {
	app := &recApplier{}
	p := New(Config{MaxBatchRecords: 1000, FlushInterval: 5 * time.Millisecond}, app, nil)
	defer p.Close()
	if _, err := p.Push(context.Background(), rec("s", 1), rec("s", 2)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	waitFor(t, "interval-triggered delivery", func() bool { return app.records() == 2 })
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after flush", p.Pending())
	}
}

func TestPipelineOverloadBackpressure(t *testing.T) {
	app := &recApplier{}
	p := New(Config{MaxBatchRecords: 1000, FlushInterval: -1, MaxPending: 3}, app, nil)
	defer p.Close()
	res, err := p.Push(context.Background(),
		rec("hot", 1), rec("hot", 2), rec("hot", 3), rec("hot", 4), rec("hot", 5))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if res.Accepted != 3 {
		t.Fatalf("accepted %d of 5 with cap 3", res.Accepted)
	}
	// Another source is unaffected: partitioned admission control.
	if _, err := p.Push(context.Background(), rec("cold", 1)); err != nil {
		t.Fatalf("cold source rejected: %v", err)
	}
	if st := p.Stats(); st.Overloaded == 0 {
		t.Fatalf("stats %+v: overload not counted", st)
	}
	// Draining the buffer reopens admission.
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := p.Push(context.Background(), rec("hot", 4)); err != nil {
		t.Fatalf("post-drain push rejected: %v", err)
	}
}

func TestPipelineThrottlesHotSource(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	app := &recApplier{}
	p := New(Config{FlushInterval: -1, SourceRate: 2, now: clock}, app, nil)
	defer p.Close()
	// Burst = SourceRate tokens (2, but min 1): two records pass, third
	// throttles.
	res, err := p.Push(context.Background(), rec("s", 1), rec("s", 2), rec("s", 3))
	if !errors.Is(err, ErrThrottled) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrThrottled (an ErrOverloaded)", err)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", res.Accepted)
	}
	// Time refills tokens at SourceRate per second.
	now = now.Add(time.Second)
	if _, err := p.Push(context.Background(), rec("s", 3), rec("s", 4)); err != nil {
		t.Fatalf("post-refill push: %v", err)
	}
	if st := p.Stats(); st.Throttled != 1 {
		t.Fatalf("stats %+v: want 1 throttled", st)
	}
}

// TestPipelineRetriesTransientFaults: a transient failure is one attempt
// and a requeue, with no retry inside the flush; the next trigger
// delivers the batch, once.
func TestPipelineRetriesTransientFaults(t *testing.T) {
	app := &recApplier{failNext: 1}
	p := New(Config{FlushInterval: -1}, app, nil)
	defer p.Close()
	if _, err := p.Push(context.Background(), rec("s", 1)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if err := p.Flush(context.Background()); err == nil {
		t.Fatal("Flush hid a failed delivery")
	}
	if app.attempts() != 1 || app.records() != 0 || p.Pending() != 1 {
		t.Fatalf("after a failed flush: %d applies, %d delivered, %d pending; want 1, 0, 1", app.attempts(), app.records(), p.Pending())
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after the fault: %v", err)
	}
	if app.attempts() != 2 || app.records() != 1 || p.Pending() != 0 {
		t.Fatalf("after the next flush: %d applies, %d delivered, %d pending; want 2, 1, 0", app.attempts(), app.records(), p.Pending())
	}
	if st := p.Stats(); st.DeliveryFailures != 1 || st.BatchesFlushed != 1 {
		t.Fatalf("stats %+v: want 1 failure, 1 batch flushed", st)
	}
}

func TestPipelineRequeuesAfterRetryBudget(t *testing.T) {
	app := &recApplier{failNext: 100}
	p := New(Config{FlushInterval: -1}, app, nil)
	defer p.Close()
	if _, err := p.Push(context.Background(), rec("s", 1), rec("s", 2)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if err := p.Flush(context.Background()); err == nil {
		t.Fatal("Flush succeeded against a dead applier")
	}
	if p.Pending() != 2 || app.attempts() != 1 {
		t.Fatalf("pending = %d after %d applies, want 2 requeued records after 1", p.Pending(), app.attempts())
	}
	// The applier heals; the requeued batch delivers in original order —
	// at-least-once, nothing lost.
	app.mu.Lock()
	app.failNext = 0
	app.mu.Unlock()
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	got := app.delivered()
	if len(got) != 1 || len(got[0].Records) != 2 ||
		got[0].Records[0].Offset != 1 || got[0].Records[1].Offset != 2 {
		t.Fatalf("delivered %+v, want offsets 1,2 in order", got)
	}
	if st := p.Stats(); st.DeliveryFailures != 1 {
		t.Fatalf("stats %+v: want 1 failure", st)
	}
}

func TestPipelineDropsRejectedBatch(t *testing.T) {
	app := &recApplier{failNext: 1, permanent: true}
	p := New(Config{FlushInterval: -1}, app, nil)
	defer p.Close()
	if _, err := p.Push(context.Background(), rec("s", 1)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if err := p.Flush(context.Background()); !IsRejected(err) {
		t.Fatalf("Flush = %v, want rejection", err)
	}
	// The poison batch is dropped, not retried: pending drains and the
	// next push flows normally.
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after rejection", p.Pending())
	}
	if st := p.Stats(); st.Rejected != 1 || st.DeliveryFailures != 0 || app.attempts() != 1 {
		t.Fatalf("stats %+v after %d applies: want 1 rejected, 0 failures, 1 apply", st, app.attempts())
	}
	if _, err := p.Push(context.Background(), rec("s", 2)); err != nil {
		t.Fatalf("push after rejection: %v", err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("flush after rejection: %v", err)
	}
	if app.records() != 1 {
		t.Fatalf("delivered %d records", app.records())
	}
}

func TestPipelineDedupesReplayedOffsets(t *testing.T) {
	app := &recApplier{}
	p := New(Config{FlushInterval: -1}, app, nil)
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Push(ctx, rec("s", 1), rec("s", 2), rec("s", 3)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	// Replay while still buffered: deduped against accepted offsets.
	res, err := p.Push(ctx, rec("s", 2), rec("s", 3), rec("s", 4))
	if err != nil || res.Accepted != 1 || res.Deduped != 2 {
		t.Fatalf("buffered replay: res %+v err %v", res, err)
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Replay after delivery: still deduped (the tracker outlives buffers).
	res, err = p.Push(ctx, rec("s", 1), rec("s", 4))
	if err != nil || res.Accepted != 0 || res.Deduped != 2 {
		t.Fatalf("post-delivery replay: res %+v err %v", res, err)
	}
	if w := p.Watermark("s"); w != 4 {
		t.Fatalf("watermark = %d, want 4", w)
	}
	if app.records() != 4 {
		t.Fatalf("delivered %d records, want 4 (no double-apply)", app.records())
	}
	if st := p.Stats(); st.Deduped != 4 {
		t.Fatalf("stats %+v: want 4 deduped", st)
	}
}

func TestPipelineCloseDrainsAndStops(t *testing.T) {
	app := &recApplier{}
	p := New(Config{FlushInterval: -1}, app, nil)
	if _, err := p.Push(context.Background(), rec("s", 1), rec("s", 2)); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if app.records() != 2 {
		t.Fatalf("Close drained %d of 2 records", app.records())
	}
	if _, err := p.Push(context.Background(), rec("s", 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPipelineCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := New(Config{FlushInterval: time.Millisecond}, &recApplier{}, nil)
		if _, err := p.Push(context.Background(), rec("s", uint64(i+1))); err != nil {
			t.Fatalf("Push: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

func TestPipelineConcurrentSourcesDeliverEverything(t *testing.T) {
	app := &recApplier{}
	p := New(Config{MaxBatchRecords: 16, FlushInterval: time.Millisecond}, app, nil)
	const sources, perSource = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			name := fmt.Sprintf("src%d", s)
			for off := uint64(1); off <= perSource; off++ {
				for {
					if _, err := p.Push(context.Background(), rec(name, off)); !errors.Is(err, ErrOverloaded) {
						if err != nil {
							t.Errorf("Push: %v", err)
						}
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := app.records(); got != sources*perSource {
		t.Fatalf("delivered %d records, want %d", got, sources*perSource)
	}
	// Per-source batches preserve offset order end to end.
	next := map[string]uint64{}
	for _, b := range app.delivered() {
		for _, r := range b.Records {
			if r.Offset != next[b.Source]+1 {
				t.Fatalf("source %s: offset %d after %d", b.Source, r.Offset, next[b.Source])
			}
			next[b.Source] = r.Offset
		}
	}
}

// TestPerSourceObservability covers the per-source telemetry surface:
// SourcesSnapshot watermark/sparse/dedupe accounting, sanitized per-source
// gauges on the collector, and batch end-to-end latency measurement.
func TestPerSourceObservability(t *testing.T) {
	col := obs.NewCollector(obs.WithWallClock())
	app := &recApplier{}
	p := New(Config{MaxBatchRecords: 4, FlushInterval: -1}, app, col)
	defer p.Close()

	ctx := context.Background()
	// Source "web tier" (hostile space in the name): offsets 1,2 then a
	// gap at 5 (sparse set of one) plus a replay of 1 (deduped).
	for _, off := range []uint64{1, 2, 5, 1} {
		p.Push(ctx, rec("web tier", off))
	}
	// Second source stays fully contiguous.
	p.Push(ctx, rec("mobile", 1), rec("mobile", 2))

	snaps := p.SourcesSnapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d sources, want 2", len(snaps))
	}
	if snaps[0].Source != "mobile" || snaps[1].Source != "web tier" {
		t.Fatalf("sources = %s,%s want name order", snaps[0].Source, snaps[1].Source)
	}
	web := snaps[1]
	if web.Watermark != 2 || web.Sparse != 1 || web.Accepted != 3 || web.Deduped != 1 || web.Pending != 3 {
		t.Fatalf("web tier snapshot = %+v, want watermark 2 sparse 1 accepted 3 deduped 1 pending 3", web)
	}
	if want := 1.0 / 4.0; web.DedupeRate != want {
		t.Fatalf("dedupe rate = %v, want %v", web.DedupeRate, want)
	}

	// Gauges publish under the sanitized label only.
	snap := col.MetricsSnapshot()
	san := obs.SanitizeLabel("web tier")
	if san == "web tier" {
		t.Fatal("label with a space survived sanitization")
	}
	if got := snap.Gauges["ingest.source."+san+".watermark"]; got != 2 {
		t.Fatalf("watermark gauge = %v, want 2 (gauges: %v)", got, snap.Gauges)
	}
	if got := snap.Gauges["ingest.source."+san+".sparse"]; got != 1 {
		t.Fatalf("sparse gauge = %v, want 1", got)
	}
	for name := range snap.Gauges {
		if strings.Contains(name, "web tier") {
			t.Fatalf("raw source name leaked into gauge %q", name)
		}
	}

	// Delivery settles pending and measures batch end-to-end latency.
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	snaps = p.SourcesSnapshot()
	web = snaps[1]
	if web.Pending != 0 {
		t.Fatalf("pending = %d after flush, want 0", web.Pending)
	}
	if web.LastBatchE2ES <= 0 {
		t.Fatalf("batch e2e latency = %v, want > 0", web.LastBatchE2ES)
	}
	snap = col.MetricsSnapshot()
	if got := snap.Histograms["ingest.batch_e2e_s"]; got.Count != 2 {
		t.Fatalf("ingest.batch_e2e_s = %+v, want 2 observations (one batch per source)", got)
	}
	if got := snap.Gauges["ingest.source."+san+".pending"]; got != 0 {
		t.Fatalf("pending gauge = %v after flush, want 0", got)
	}
}

// TestIngestLoggerSeesRetries wires a logger into the pipeline and checks
// a failed delivery logs one requeue line with the source name.
func TestIngestLoggerSeesRetries(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(syncWriter{&mu, &buf}, nil))
	app := &recApplier{failNext: 10}
	p := New(Config{MaxBatchRecords: 2, FlushInterval: -1, Logger: logger}, app, nil)
	defer p.Close()
	p.Push(context.Background(), rec("s1", 1), rec("s1", 2))
	p.Flush(context.Background()) // one attempt, then requeue
	mu.Lock()
	text := buf.String()
	mu.Unlock()
	if strings.Count(text, "\n") != 1 || !strings.Contains(text, "requeued") {
		t.Fatalf("log wants one requeue line:\n%s", text)
	}
	if !strings.Contains(text, `"source":"s1"`) {
		t.Fatalf("log lines lack the source attr:\n%s", text)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// countSink records the deltas the collector's counters move by.
type countSink struct {
	mu     sync.Mutex
	deltas map[string][]float64
}

func (s *countSink) Count(name string, delta float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deltas[name] = append(s.deltas[name], delta)
}
func (*countSink) Gauge(string, float64)   {}
func (*countSink) Observe(string, float64) {}

func (s *countSink) take(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.deltas[name]
	delete(s.deltas, name)
	return d
}

// TestPushCountsPerBatch pins the push as the unit of bookkeeping: the
// collector's counters move once per push with its totals, per-source
// counts stay per source, and a push stopped midway — throttled, or by a
// malformed record — reports and counts exactly what it admitted before.
func TestPushCountsPerBatch(t *testing.T) {
	now := time.Unix(0, 0)
	col, sink := obs.NewCollector(), &countSink{deltas: map[string][]float64{}}
	p := New(Config{FlushInterval: -1, MaxBatchRecords: 1 << 20, MaxPending: 1 << 20,
		SourceRate: 300, now: func() time.Time { return now }}, &recApplier{}, col)
	defer p.Close()
	col.SetSink(sink)
	ctx := context.Background()

	// 256 records in runs from two sources, the last 16 replaying the first.
	var batch []Record
	for off := uint64(1); off <= 120; off++ {
		batch = append(batch, rec("a", off))
	}
	for off := uint64(1); off <= 120; off++ {
		batch = append(batch, rec("b", off))
	}
	for off := uint64(1); off <= 16; off++ {
		batch = append(batch, rec("a", off))
	}
	res, err := p.Push(ctx, batch...)
	if err != nil || res.Accepted != 240 || res.Deduped != 16 {
		t.Fatalf("push = %+v, %v; want 240 accepted, 16 deduped", res, err)
	}
	if got := sink.take("ingest.accepted"); len(got) != 1 || got[0] != 240 {
		t.Fatalf("ingest.accepted moved by %v, want one step of 240", got)
	}
	if got := sink.take("ingest.replay.deduped"); len(got) != 1 || got[0] != 16 {
		t.Fatalf("ingest.replay.deduped moved by %v, want one step of 16", got)
	}
	snaps := p.SourcesSnapshot()
	if a, b := snaps[0], snaps[1]; a.Accepted != 120 || a.Deduped != 16 || a.Pending != 120 || b.Accepted != 120 || b.Deduped != 0 {
		t.Fatalf("per-source counts a=%+v b=%+v", a, b)
	}

	// A whole 256-record batch from one source, after the bucket refilled.
	now = now.Add(time.Second)
	batch = batch[:0]
	for off := uint64(1); off <= 256; off++ {
		batch = append(batch, rec("c", off))
	}
	if res, err = p.Push(ctx, batch...); err != nil || res.Accepted != 256 {
		t.Fatalf("push = %+v, %v; want 256 accepted", res, err)
	}
	if got := sink.take("ingest.accepted"); len(got) != 1 || got[0] != 256 {
		t.Fatalf("ingest.accepted moved by %v, want one step of 256", got)
	}

	// Source c's bucket holds 300-256 = 44 tokens: record 45 of the next
	// push throttles, 44 stay accepted and are counted.
	batch = batch[:0]
	for off := uint64(257); off <= 356; off++ {
		batch = append(batch, rec("c", off))
	}
	res, err = p.Push(ctx, batch...)
	if !errors.Is(err, ErrThrottled) || res.Accepted != 44 {
		t.Fatalf("push = %+v, %v; want ErrThrottled after 44", res, err)
	}
	if got := sink.take("ingest.accepted"); len(got) != 1 || got[0] != 44 {
		t.Fatalf("ingest.accepted moved by %v, want one step of 44", got)
	}
	if got := sink.take("ingest.throttled"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ingest.throttled moved by %v, want one step of 1", got)
	}

	// A malformed record stops the push; what preceded it stays counted.
	res, err = p.Push(ctx, rec("d", 1), rec("d", 2), Record{Source: "d"}, rec("d", 3))
	if err == nil || res.Accepted != 2 {
		t.Fatalf("push = %+v, %v; want an error after 2", res, err)
	}
	if got := sink.take("ingest.accepted"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ingest.accepted moved by %v, want one step of 2", got)
	}
	if st := p.Stats(); st.Accepted != 240+256+44+2 || st.Deduped != 16 || st.Throttled != 1 || p.Pending() != int(st.Accepted) {
		t.Fatalf("stats %+v, pending %d", st, p.Pending())
	}
	if got := col.MetricsSnapshot().Counters["ingest.accepted"]; got != 240+256+44+2 {
		t.Fatalf("ingest.accepted = %v", got)
	}
}
