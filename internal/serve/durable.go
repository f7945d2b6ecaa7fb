package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/ingest"
)

// DurableBackend is a backend whose applied state can be captured into a
// durability snapshot and restored from one at startup. EngineBackend
// implements it.
type DurableBackend interface {
	RowApplier
	// CaptureState takes a handle on the applied serving state (every
	// store's records, ingest progress) that stays valid, and unchanged,
	// while ingest carries on. The caller fills in WalSeq and Sources —
	// both live at the pipeline layer — and must hold the pipeline
	// barriered so the state and the WAL position agree.
	CaptureState() *durable.State
	// RestoreState replaces the applied state with a decoded snapshot,
	// which it takes ownership of. Call on a freshly prepared backend
	// before serving starts.
	RestoreState(st *durable.State) error
}

// CaptureState takes, under the shared state lock (capture only reads;
// the pipeline barrier has already quiesced writers), the record slice
// of every (dataset, site) store — O(stores), no record is touched.
func (b *EngineBackend) CaptureState() *durable.State {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	st := &durable.State{IngestBatches: b.sys.IngestBatches()}
	c := b.sys.Cluster
	for _, ds := range b.sys.Workload.Datasets {
		dstate := durable.DatasetState{Name: ds.Name, Records: make([][]engine.KV, c.N())}
		for site := range dstate.Records {
			dstate.Records[site] = c.Data[site].Records(ds.Name)
		}
		st.Datasets = append(st.Datasets, dstate)
	}
	return st
}

// RestoreState loads a decoded snapshot into the backend: every
// dataset's per-site records are replaced wholesale and the ingest batch
// counter resumes. Every restored store's version rises, so change
// counters read before the restore no longer match.
func (b *EngineBackend) RestoreState(st *durable.State) error {
	b.stateMu.Lock()
	defer b.stateMu.Unlock()
	c := b.sys.Cluster
	for _, ds := range st.Datasets {
		if b.Schema(ds.Name) == nil {
			return fmt.Errorf("serve: restore: snapshot has unknown dataset %q", ds.Name)
		}
		if len(ds.Records) != c.N() {
			return fmt.Errorf("serve: restore: %q snapshot has %d sites, cluster has %d",
				ds.Name, len(ds.Records), c.N())
		}
		for i, recs := range ds.Records {
			c.Data[i].Restore(ds.Name, recs)
		}
	}
	b.sys.RestoreIngestProgress(st.IngestBatches)
	return nil
}

// EnableDurableIngest is EnableIngest plus crash safety: it recovers
// state from the manager's data directory (newest valid snapshot, then
// the WAL tail replayed exactly-once through the offset dedupe), wires
// the WAL in as the pipeline's ack-boundary journal, seeds the dedupe
// trackers with the recovered offsets, and snapshots in the background
// every snapshotEvery applied batches (0 disables cadence snapshots;
// the shutdown path still cuts a final one via SnapshotNow).
func (s *Server) EnableDurableIngest(ctx context.Context, cfg ingest.Config, m *durable.Manager, snapshotEvery int) (*ingest.Pipeline, *durable.RecoverySummary, error) {
	db, ok := s.backend.(DurableBackend)
	if !ok {
		return nil, nil, fmt.Errorf("serve: backend %T cannot capture durable state", s.backend)
	}
	sum, err := m.Recover(ctx,
		func(st *durable.State) error { return db.RestoreState(st) },
		func(ctx context.Context, recs []ingest.Record) error {
			_, err := db.ApplyBatch(ctx, ingest.Batch{Records: recs})
			return err
		})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: recover: %w", err)
	}
	s.dman = m
	s.dback = db
	s.snapEvery = snapshotEvery
	cfg.Journal = m.Journal()
	cfg.RestoreOffsets = sum.Sources
	pipe, err := s.EnableIngest(cfg)
	if err != nil {
		return nil, nil, err
	}
	return pipe, sum, nil
}

// SnapshotNow cuts one snapshot at a pipeline barrier: admission pauses,
// buffers drain through the applier, and a handle on the applied state
// is captured together with the WAL position it corresponds to. Encoding,
// the file write and the WAL prune happen after the barrier releases:
// nothing the handle refers to is modified afterwards.
func (s *Server) SnapshotNow(ctx context.Context) error {
	if s.dman == nil || s.pipe == nil {
		return fmt.Errorf("serve: durable ingest not enabled")
	}
	start := time.Now()
	var st *durable.State
	err := s.pipe.Barrier(ctx, func() error {
		st = s.dback.CaptureState()
		st.WalSeq = s.dman.Seq()
		st.Sources = s.pipe.OffsetsSnapshot()
		return nil
	})
	if err != nil {
		return err
	}
	barrier := time.Since(start) // how long admission was paused, drain included
	size, err := s.dman.WriteSnapshot(st)
	if err != nil {
		return err
	}
	s.count("serve.durable.snapshots", 1)
	s.observe("serve.durable.barrier_ms", float64(barrier.Nanoseconds())/1e6)
	s.observe("serve.durable.snapshot_ms", float64(time.Since(start).Nanoseconds())/1e6)
	s.observe("serve.durable.snapshot_bytes", float64(size))
	return nil
}

// maybeSnapshot runs after every applied batch: once snapshotEvery
// batches accumulate it kicks one background snapshot, never more than
// one at a time (a slow disk skips cadence points rather than queueing).
// It must not snapshot inline — the applier holds the delivery lock the
// barrier's flush needs.
func (s *Server) maybeSnapshot() {
	if s.dman == nil || s.snapEvery <= 0 {
		return
	}
	if s.snapPending.Add(1) < int64(s.snapEvery) {
		return
	}
	if !s.snapBusy.CompareAndSwap(false, true) {
		return
	}
	s.snapPending.Store(0)
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		defer s.snapBusy.Store(false)
		if err := s.SnapshotNow(context.Background()); err != nil {
			s.count("serve.durable.snapshot_errors", 1)
			if s.log != nil {
				s.log.Error("serve: background snapshot failed", slog.String("error", err.Error()))
			}
		}
	}()
}

// DrainSnapshots waits for any in-flight background snapshot — shutdown
// calls it between closing the pipeline and cutting the final snapshot.
func (s *Server) DrainSnapshots() { s.snapWG.Wait() }
