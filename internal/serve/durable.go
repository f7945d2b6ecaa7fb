package serve

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"

	"bohr/internal/core"
	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/ingest"
	"bohr/internal/olap"
)

// DurableBackend is a backend whose applied state can be captured into a
// durability snapshot and restored from one at startup. EngineBackend
// implements it.
type DurableBackend interface {
	RowApplier
	// CaptureState dumps the applied serving state (cluster rows, cube
	// bases, ingest progress). The caller fills in WalSeq and Sources —
	// both live at the pipeline layer — and must hold the pipeline
	// barriered so the dump and the WAL position agree.
	CaptureState() *durable.State
	// RestoreState replaces the applied state with a snapshot dump. Call
	// on a freshly prepared backend before serving starts.
	RestoreState(st *durable.State) error
}

// CaptureState dumps every dataset's per-site rows plus — for datasets
// live-ingested into — the per-site base cubes, under the shared state
// lock (capture only reads; the pipeline barrier has already quiesced
// writers).
func (b *EngineBackend) CaptureState() *durable.State {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	st := &durable.State{IngestBatches: b.sys.IngestBatches()}
	cubes := b.sys.ExportCubeStates()
	c := b.sys.Cluster
	for _, ds := range b.sys.Workload.Datasets {
		siteCubes, hasCubes := cubes[ds.Name]
		dstate := durable.DatasetState{Name: ds.Name, HasCubes: hasCubes}
		for site := 0; site < c.N(); site++ {
			ss := durable.SiteState{Site: strconv.Itoa(site)}
			for _, kv := range c.Data[site].Records(ds.Name) {
				ss.Records = append(ss.Records, durable.KVState{Key: kv.Key, Val: kv.Val})
			}
			if hasCubes {
				for _, cell := range siteCubes[site].Cells {
					ss.CubeCells = append(ss.CubeCells, durable.CellState{
						Coords: cell.Coords, Sum: cell.Sum, Count: cell.Count,
					})
				}
				ss.CubeRows = siteCubes[site].Rows
			}
			dstate.Sites = append(dstate.Sites, ss)
		}
		st.Datasets = append(st.Datasets, dstate)
	}
	return st
}

// RestoreState loads a snapshot dump into the backend: every dataset's
// per-site rows are replaced wholesale, cube bases are swapped for
// datasets the snapshot carries cubes for (others keep their seed-
// derived state, which is what the snapshot's absence asserts) and the
// ingest batch counter resumes. Every restored store's version rises, so
// content hashes taken before the restore no longer match.
func (b *EngineBackend) RestoreState(st *durable.State) error {
	b.stateMu.Lock()
	defer b.stateMu.Unlock()
	c := b.sys.Cluster
	cubeStates := map[string][]core.SiteCubeState{}
	for _, ds := range st.Datasets {
		if b.Schema(ds.Name) == nil {
			return fmt.Errorf("serve: restore: snapshot has unknown dataset %q", ds.Name)
		}
		if len(ds.Sites) != c.N() {
			return fmt.Errorf("serve: restore: %q snapshot has %d sites, cluster has %d",
				ds.Name, len(ds.Sites), c.N())
		}
		for i, ss := range ds.Sites {
			if ss.Site != strconv.Itoa(i) {
				return fmt.Errorf("serve: restore: %q site %d labeled %q", ds.Name, i, ss.Site)
			}
			var kvs []engine.KV
			if len(ss.Records) > 0 {
				kvs = make([]engine.KV, len(ss.Records))
				for j, r := range ss.Records {
					kvs[j] = engine.KV{Key: r.Key, Val: r.Val}
				}
			}
			c.Data[i].Restore(ds.Name, kvs)
		}
		if ds.HasCubes {
			sites := make([]core.SiteCubeState, len(ds.Sites))
			for i, ss := range ds.Sites {
				cells := make([]olap.Cell, len(ss.CubeCells))
				for j, cs := range ss.CubeCells {
					cells[j] = olap.Cell{Coords: cs.Coords, Sum: cs.Sum, Count: cs.Count}
				}
				sites[i] = core.SiteCubeState{Cells: cells, Rows: ss.CubeRows}
			}
			cubeStates[ds.Name] = sites
		}
	}
	if len(cubeStates) > 0 {
		if err := b.sys.RestoreCubeStates(cubeStates); err != nil {
			return fmt.Errorf("serve: restore: %w", err)
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
// buffers drain through the applier, and the state dump is captured
// together with the WAL position it corresponds to. The file write and
// WAL prune happen after the barrier releases — the dump is a deep copy,
// so ingest resumes while it hits disk.
func (s *Server) SnapshotNow(ctx context.Context) error {
	if s.dman == nil || s.pipe == nil {
		return fmt.Errorf("serve: durable ingest not enabled")
	}
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
	if err := s.dman.WriteSnapshot(st); err != nil {
		return err
	}
	s.count("serve.durable.snapshots", 1)
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
