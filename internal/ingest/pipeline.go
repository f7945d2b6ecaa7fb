package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"bohr/internal/obs"
)

// ErrOverloaded is returned by Push when admission control rejects a
// record — the source's buffer is at capacity or the source is over its
// admission rate. The HTTP endpoint maps it to 429; clients back off and
// resend (the dedupe tracker makes resending the whole batch safe).
var ErrOverloaded = errors.New("ingest: source overloaded, retry later")

// ErrThrottled is the rate-limit flavor of ErrOverloaded: the source
// exceeded its admission rate. errors.Is(ErrThrottled, ErrOverloaded)
// holds, so one check covers both backpressure causes.
var ErrThrottled = fmt.Errorf("%w (admission rate exceeded)", ErrOverloaded)

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// ErrJournal is returned by Push when the durability journal cannot
// persist admitted records. The failure is sticky: a pipeline whose
// journal broke refuses all further pushes, because acking a replayed
// record that was never journaled (the in-memory tracker would dedupe
// the resend) could silently lose it across a crash. The HTTP endpoint
// maps it to 503 — the daemon needs operator attention, not a retry.
var ErrJournal = errors.New("ingest: journal append failed")

// errRejected marks a permanent delivery failure: the applier judged the
// batch malformed (unknown dataset, bad coordinates), so redelivering it
// cannot help and the records are dropped instead of wedging the pipeline.
var errRejected = errors.New("ingest: batch rejected")

// Reject wraps an applier error as permanent: the pipeline drops the
// batch (counting ingest.rejected) instead of redelivering it forever.
func Reject(err error) error { return fmt.Errorf("%w: %w", errRejected, err) }

// IsRejected reports whether an applier error was marked permanent.
func IsRejected(err error) bool { return errors.Is(err, errRejected) }

// Applier consumes delivered batches. Apply commits the whole batch or
// changes nothing: on a nil return the batch counts as applied; on a
// Reject-wrapped return it is dropped; on any other error it is requeued
// at the head of its source's buffer and delivered again at the next
// flush trigger. An error that came after part of the batch landed would
// apply that part twice, so an applier that can fail late must absorb
// the failure and return nil.
//
// Apply must not retain b.Records after it returns: the slice is a window
// on its source's buffer, which later pushes refill once the batch
// settles. The records' strings and Coords are never rewritten and may be
// kept.
type Applier interface {
	Apply(ctx context.Context, b Batch) error
}

// ApplierFunc adapts a function to the Applier interface.
type ApplierFunc func(ctx context.Context, b Batch) error

// Apply calls f.
func (f ApplierFunc) Apply(ctx context.Context, b Batch) error { return f(ctx, b) }

// Journal is the durability hook at the ack boundary: Push hands every
// newly admitted record to Append and only acknowledges the push once
// Append returns, so everything a client has seen acknowledged is
// persisted — even records still buffered, undelivered, at a crash
// (clients replay only from their last acked offset, so acked-but-
// unapplied records must survive). An Append error fails the push with
// ErrJournal and wedges the pipeline (see ErrJournal).
type Journal interface {
	Append(ctx context.Context, recs []Record) error
}

// Config tunes the pipeline. The zero value adopts the defaults noted on
// each field.
type Config struct {
	// MaxBatchRecords is the size flush trigger: a source's buffer is
	// delivered as soon as it holds this many records (default 256).
	MaxBatchRecords int
	// FlushInterval is the time flush trigger: every interval, all
	// buffers — full or not — are delivered (default 200ms; negative
	// disables the timer, leaving size triggers and explicit Flush).
	FlushInterval time.Duration
	// MaxPending caps one source's buffered-plus-inflight records;
	// beyond it Push returns ErrOverloaded (default 4096).
	MaxPending int
	// SourceRate is the per-source admission rate in records/second with
	// a one-second burst; beyond it Push returns ErrThrottled (0 =
	// unlimited).
	SourceRate float64
	// Seed is read by nothing: delivery makes one attempt per flush
	// trigger and draws no randomness.
	Seed int64
	// Logger receives structured delivery-path logs (requeues and
	// permanent rejections at Warn, with the source attached); nil
	// disables logging.
	Logger *slog.Logger
	// Journal, when non-nil, persists admitted records before Push
	// acknowledges them (see the Journal interface).
	Journal Journal
	// RestoreOffsets seeds per-source dedupe trackers from recovered
	// state, so a restarted daemon deduplicates client replays exactly
	// like the pre-crash one.
	RestoreOffsets []SourceOffsets

	// now is the clock of the rate limiter and the batch latency;
	// nil means time.Now. The package's tests set it.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 256
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4096
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Stats is a snapshot of the pipeline's counters (all monotonic).
type Stats struct {
	// Accepted records admitted into a buffer.
	Accepted uint64
	// Deduped records dropped as replays of an already-accepted
	// (source, offset).
	Deduped uint64
	// Throttled records rejected by the per-source admission rate.
	Throttled uint64
	// Overloaded records rejected by the per-source buffer cap.
	Overloaded uint64
	// BatchesFlushed batches delivered successfully.
	BatchesFlushed uint64
	// RecordsDelivered records delivered successfully.
	RecordsDelivered uint64
	// DeliveryFailures batches requeued after a failed delivery.
	DeliveryFailures uint64
	// Rejected records dropped on a permanent (Reject-wrapped) applier
	// error.
	Rejected uint64
}

// sourceState is one partition of the pipeline. buf[head:] is buffered,
// the inflight records just before head are out for delivery, and
// anything before those has settled. buf and admitAt keep their capacity
// for the source's lifetime: settle reclaims the settled prefix once no
// batch is in flight, and a requeue just moves head back.
type sourceState struct {
	buf      []Record
	head     int
	inflight int
	offsets  Offsets
	tokens   float64
	lastFill time.Time
	hasRate  bool

	// admitAt parallels buf: each record's admission time, so a
	// delivered batch's end-to-end latency — admit to applied, queueing
	// and requeues included — is measurable.
	admitAt  []time.Time
	accepted uint64
	deduped  uint64
	lastE2E  float64
}

// SourceStats is one source's observability snapshot for /v1/stats.
type SourceStats struct {
	Source string `json:"source"`
	// Watermark is the contiguous accepted-offset high-water mark; Sparse
	// is how many accepted offsets sit above it (replay-gap memory).
	Watermark uint64 `json:"watermark"`
	Sparse    int    `json:"sparse"`
	// Pending is the source's buffered-plus-inflight records.
	Pending  int    `json:"pending"`
	Accepted uint64 `json:"accepted"`
	Deduped  uint64 `json:"deduped"`
	// DedupeRate is deduped/(accepted+deduped) — the replay fraction.
	DedupeRate float64 `json:"dedupe_rate"`
	// LastBatchE2ES is the last delivered batch's end-to-end latency
	// (oldest record's admission to successful apply), in seconds.
	LastBatchE2ES float64 `json:"last_batch_e2e_s"`
}

// pending is the source's buffered-plus-inflight record count.
func (st *sourceState) pending() int { return len(st.buf) - st.head + st.inflight }

// reclaim runs after a batch of the source settled: with nothing in
// flight, the settled prefix is dropped — the whole buffer rewinds when
// nothing is left, and otherwise the remainder moves to the front once
// it is no longer than the prefix, so a backlog of k batches costs O(k)
// record copies, not O(k²). Settled slots are zeroed, so the buffer pins
// no request body.
func (st *sourceState) reclaim() {
	if st.inflight > 0 || st.head == 0 {
		return
	}
	live := len(st.buf) - st.head
	if live > st.head {
		return
	}
	copy(st.buf, st.buf[st.head:])
	copy(st.admitAt, st.admitAt[st.head:])
	clear(st.buf[live:])
	st.buf, st.admitAt, st.head = st.buf[:live], st.admitAt[:live], 0
}

func (st *sourceState) snapshot(name string) SourceStats {
	s := SourceStats{
		Source:        name,
		Watermark:     st.offsets.Watermark(),
		Sparse:        st.offsets.Above(),
		Pending:       st.pending(),
		Accepted:      st.accepted,
		Deduped:       st.deduped,
		LastBatchE2ES: st.lastE2E,
	}
	if total := st.accepted + st.deduped; total > 0 {
		s.DedupeRate = float64(st.deduped) / float64(total)
	}
	return s
}

// SourcesSnapshot returns every source's observability snapshot, name
// order, for /v1/stats. It is the only surface of per-source state: no
// collector series carries it, so a source name never names a metric.
func (p *Pipeline) SourcesSnapshot() []SourceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.sources))
	for name := range p.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SourceStats, 0, len(names))
	for _, name := range names {
		out = append(out, p.sources[name].snapshot(name))
	}
	return out
}

// PushResult reports what Push did with the records it was given.
type PushResult struct {
	Accepted int `json:"accepted"`
	Deduped  int `json:"deduped"`
}

// Pipeline is the partitioned streaming-ingestion pipeline. One
// background worker owns delivery, so batches of one source apply in
// acceptance order; Push never blocks on the applier.
type Pipeline struct {
	cfg     Config
	applier Applier
	col     *obs.Collector

	// admitMu fences admission against Barrier: Push holds it shared for
	// its whole span (admission and the journal wait included), Barrier
	// holds it exclusively, so a barrier observes no record half-admitted
	// and no journal append racing the captured WAL position.
	admitMu sync.RWMutex

	mu      sync.Mutex
	sources map[string]*sourceState
	pending int
	stats   Stats
	closed  bool
	// journalErr is the sticky journal failure; once set every Push
	// fails with it (see ErrJournal).
	journalErr error

	// deliverMu serializes deliveries (worker ticks, size kicks, and
	// explicit Flush calls), keeping per-source batch order intact.
	deliverMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds a pipeline over an applier and starts its flush worker; col
// may be nil. Close releases the worker.
func New(cfg Config, applier Applier, col *obs.Collector) *Pipeline {
	p := &Pipeline{
		cfg:     cfg.withDefaults(),
		applier: applier,
		col:     col,
		sources: make(map[string]*sourceState),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, so := range p.cfg.RestoreOffsets {
		if so.Source == "" {
			continue
		}
		st := p.sourceLocked(so.Source)
		// Restore only fails on a malformed snapshot; fall back to an
		// empty tracker (at-least-once replays re-dedupe the hard way).
		if err := st.offsets.Restore(so.Watermark, so.Above); err != nil && p.cfg.Logger != nil {
			p.cfg.Logger.Warn("ingest: dropping malformed restored offsets",
				slog.String("source", so.Source), slog.String("error", err.Error()))
		}
	}
	// Zero-register the headline counters so they appear in metric
	// snapshots before the first record lands.
	p.col.Count("ingest.accepted", 0)
	p.col.Count("ingest.replay.deduped", 0)
	p.col.Count("ingest.throttled", 0)
	p.col.Count("ingest.overloaded", 0)
	p.col.Count("ingest.batches.flushed", 0)
	p.col.Gauge("ingest.queue_depth", 0)
	go p.worker()
	return p
}

// Push admits records into their sources' buffers. Replayed offsets are
// dropped (counted in PushResult.Deduped); a record over the source's
// rate or buffer cap stops the push and returns ErrThrottled or
// ErrOverloaded alongside the partial result — everything already
// accepted stays accepted, and the caller may simply resend the whole
// batch after backing off. Push never blocks on delivery.
//
// With a Journal configured, Push persists the newly accepted records
// and waits for the journal's durability acknowledgement before
// returning — the at-the-ack-boundary write-ahead discipline: nothing a
// client sees acknowledged can be lost by a crash. A journal failure
// returns ErrJournal (sticky; see its doc).
func (p *Pipeline) Push(ctx context.Context, recs ...Record) (PushResult, error) {
	var res PushResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	p.admitMu.RLock()
	defer p.admitMu.RUnlock()
	kick := false
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return res, ErrClosed
	}
	if p.journalErr != nil {
		err := p.journalErr
		p.mu.Unlock()
		return res, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	// The push, not the record, is the unit of bookkeeping: one clock
	// reading, one lookup per run of records from one source, and the
	// collector's counters moved once with the push's totals.
	//
	// The journal gets the accepted records in admission order. Until a
	// record is deduped they are a prefix of recs, which is journaled as
	// is; from the first dedupe on, accepted collects them instead.
	var pushErr error
	var accepted []Record
	var curName string
	var st *sourceState
	now := p.cfg.now()
	for i, r := range recs {
		if r.Source == "" || r.Offset == 0 {
			pushErr = fmt.Errorf("ingest: record needs a source and a 1-based offset")
			break
		}
		if r.Source != curName { // never "": the first record looks its source up
			curName, st = r.Source, p.sourceLocked(r.Source)
		}
		if st.offsets.Seen(r.Offset) {
			if p.cfg.Journal != nil && accepted == nil {
				accepted = append(make([]Record, 0, len(recs)-1), recs[:i]...)
			}
			res.Deduped++
			st.deduped++
			continue
		}
		if p.cfg.SourceRate > 0 && !p.takeTokenLocked(st, now) {
			p.stats.Throttled++
			p.col.Count("ingest.throttled", 1)
			pushErr = ErrThrottled
			break
		}
		if st.pending() >= p.cfg.MaxPending {
			p.stats.Overloaded++
			p.col.Count("ingest.overloaded", 1)
			pushErr = ErrOverloaded
			break
		}
		st.offsets.Admit(r.Offset)
		st.buf = append(st.buf, r)
		st.admitAt = append(st.admitAt, now)
		res.Accepted++
		st.accepted++
		if accepted != nil {
			accepted = append(accepted, r)
		}
		if len(st.buf)-st.head >= p.cfg.MaxBatchRecords {
			kick = true
		}
	}
	p.pending += res.Accepted
	p.stats.Accepted += uint64(res.Accepted)
	p.stats.Deduped += uint64(res.Deduped)
	if res.Accepted > 0 {
		p.col.Count("ingest.accepted", float64(res.Accepted))
	}
	if res.Deduped > 0 {
		p.col.Count("ingest.replay.deduped", float64(res.Deduped))
	}
	p.col.Gauge("ingest.queue_depth", float64(p.pending))
	p.mu.Unlock()
	if kick {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	// Journal outside p.mu (the append may fsync — concurrent pushes must
	// group-commit, not serialize) but inside the admitMu read lock, so a
	// Barrier cannot capture a WAL position with this append in flight.
	// The admitted records stay admitted either way: on failure they were
	// never acked, so the client resends after the operator repairs the
	// journal — or, across a crash, replays from its last acked offset.
	if p.cfg.Journal != nil && res.Accepted > 0 {
		if accepted == nil {
			accepted = recs[:res.Accepted]
		}
		if err := p.cfg.Journal.Append(ctx, accepted); err != nil {
			p.mu.Lock()
			if p.journalErr == nil {
				p.journalErr = err
			}
			p.mu.Unlock()
			if p.cfg.Logger != nil {
				p.cfg.Logger.Error("ingest: journal append failed; pipeline wedged",
					slog.Int("records", len(accepted)), slog.String("error", err.Error()))
			}
			return res, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	return res, pushErr
}

// takeTokenLocked runs the per-source token bucket: capacity one second
// of SourceRate (at least one record), refilled continuously.
func (p *Pipeline) takeTokenLocked(st *sourceState, now time.Time) bool {
	burst := p.cfg.SourceRate
	if burst < 1 {
		burst = 1
	}
	if !st.hasRate {
		st.hasRate = true
		st.tokens = burst
		st.lastFill = now
	}
	st.tokens += now.Sub(st.lastFill).Seconds() * p.cfg.SourceRate
	st.lastFill = now
	if st.tokens > burst {
		st.tokens = burst
	}
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

func (p *Pipeline) sourceLocked(name string) *sourceState {
	st, ok := p.sources[name]
	if !ok {
		st = &sourceState{}
		p.sources[name] = st
	}
	return st
}

// worker owns timed and size-triggered flushes until Close.
func (p *Pipeline) worker() {
	defer close(p.done)
	var tickC <-chan time.Time
	if p.cfg.FlushInterval > 0 {
		t := time.NewTicker(p.cfg.FlushInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			p.flush(context.Background(), false)
		case <-tickC:
			p.flush(context.Background(), true)
		}
	}
}

// Flush synchronously delivers every buffered record, partial batches
// included, and returns the first delivery error (requeued batches
// still count as errors here; they stay buffered for the next trigger).
func (p *Pipeline) Flush(ctx context.Context) error {
	return p.flush(ctx, true)
}

// flush repeatedly cuts the next due batch — sources in name order, so
// flushing is deterministic given the same buffered state — and delivers
// it. With all=false only full buffers (size trigger) are cut. A batch is
// a window on its source's buffer, not a copy: deliveries are serialized
// by deliverMu, so at most one window is out at a time, and pushes only
// append past it.
func (p *Pipeline) flush(ctx context.Context, all bool) error {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	var firstErr error
	// A source whose delivery failed (requeued) must not be redelivered in
	// the same pass, or a dead applier turns Flush into a hot loop.
	tried := make(map[string]bool)
	var names []string
	for {
		p.mu.Lock()
		names = names[:0]
		for name := range p.sources {
			names = append(names, name)
		}
		sort.Strings(names)
		var src string
		var batch []Record
		var admitAt []time.Time
		for _, name := range names {
			st := p.sources[name]
			buffered := len(st.buf) - st.head
			if tried[name] || buffered == 0 {
				continue
			}
			if !all && buffered < p.cfg.MaxBatchRecords {
				continue
			}
			n := min(buffered, p.cfg.MaxBatchRecords)
			end := st.head + n
			batch = st.buf[st.head:end:end]
			admitAt = st.admitAt[st.head:end:end]
			st.head = end
			st.inflight += n
			src = name
			break
		}
		p.mu.Unlock()
		if batch == nil {
			return firstErr
		}
		if err := p.deliver(ctx, src, batch, admitAt); err != nil {
			tried[src] = true
			if firstErr == nil {
				firstErr = err
			}
		}
	}
}

// deliver makes one attempt at a batch. Success and permanent rejection
// settle the records; any other error puts them back at the head of the
// source's buffer for the next trigger — the window is still in place
// there, so that is moving head back over it. The applier changed
// nothing on an error, so a requeued batch is applied once when it does
// land.
func (p *Pipeline) deliver(ctx context.Context, src string, batch []Record, admitAt []time.Time) error {
	n := len(batch)
	err := p.applier.Apply(ctx, Batch{Source: src, Records: batch})
	switch {
	case err == nil:
		// Batch end-to-end latency: the oldest record's admission to
		// the successful apply, queueing and requeues included.
		var e2e float64
		if len(admitAt) > 0 {
			e2e = p.cfg.now().Sub(admitAt[0]).Seconds()
		}
		p.settle(src, n, func() {
			p.stats.BatchesFlushed++
			p.stats.RecordsDelivered += uint64(n)
			p.col.Count("ingest.batches.flushed", 1)
			p.col.Count("ingest.records.delivered", float64(n))
			p.col.Observe("ingest.batch_e2e_s", e2e)
			p.sourceLocked(src).lastE2E = e2e
		})
		return nil
	case IsRejected(err):
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("ingest: batch rejected",
				slog.String("source", src), slog.Int("records", n),
				slog.String("error", err.Error()))
		}
		p.settle(src, n, func() {
			p.stats.Rejected += uint64(n)
			p.col.Count("ingest.rejected", float64(n))
		})
		return err
	}
	if p.cfg.Logger != nil {
		p.cfg.Logger.Warn("ingest: delivery failed, batch requeued",
			slog.String("source", src), slog.Int("records", n),
			slog.String("error", err.Error()))
	}
	p.mu.Lock()
	st := p.sourceLocked(src)
	st.head -= n
	st.inflight -= n
	p.stats.DeliveryFailures++
	p.col.Count("ingest.delivery.failures", 1)
	p.mu.Unlock()
	return err
}

// settle finalizes n inflight records of a source, reclaims its buffer
// and applies the outcome's counter updates under the pipeline lock.
func (p *Pipeline) settle(src string, n int, counters func()) {
	p.mu.Lock()
	st := p.sourceLocked(src)
	st.inflight -= n
	st.reclaim()
	p.pending -= n
	counters()
	p.col.Gauge("ingest.queue_depth", float64(p.pending))
	p.mu.Unlock()
}

// Close stops the flush worker, drains every buffer with one final
// synchronous flush, and leaves the pipeline rejecting further pushes.
// It is idempotent.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	<-p.done
	return p.Flush(context.Background())
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Pending reports records buffered or in delivery.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Watermark reports a source's contiguous accepted-offset watermark
// (0 for an unknown source).
func (p *Pipeline) Watermark(source string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.sources[source]
	if !ok {
		return 0
	}
	return st.offsets.Watermark()
}

// OffsetsSnapshot exports every source's dedupe tracker in source-name
// order — the per-source offset state a durability snapshot persists.
func (p *Pipeline) OffsetsSnapshot() []SourceOffsets {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.sources))
	for name := range p.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SourceOffsets, 0, len(names))
	for _, name := range names {
		wm, above := p.sources[name].offsets.Export()
		out = append(out, SourceOffsets{Source: name, Watermark: wm, Above: above})
	}
	return out
}

// Barrier quiesces the pipeline and runs fn over the quiesced state:
// admission is blocked (Push waits), every buffered record is flushed
// through the applier, and only then does fn run — so at fn time the
// applied state, the dedupe trackers, and the journal all describe
// exactly the same set of records. This is the consistency point
// snapshots are cut at. A flush failure (a requeued batch) aborts the
// barrier without running fn.
//
// fn must not call Push, Flush, or Close (deadlock); reading snapshots
// (OffsetsSnapshot, Stats) and the backend's state is the intended use.
func (p *Pipeline) Barrier(ctx context.Context, fn func() error) error {
	p.admitMu.Lock()
	defer p.admitMu.Unlock()
	if err := p.flush(ctx, true); err != nil {
		return fmt.Errorf("ingest: barrier flush: %w", err)
	}
	return fn()
}

// Kill stops the flush worker WITHOUT the final drain Close performs,
// leaving buffered records undelivered — the crash-simulation hook the
// durability tests use to model a process that died mid-stream. A killed
// pipeline rejects further pushes; calling Close afterwards is a no-op.
func (p *Pipeline) Kill() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	<-p.done
}
