package durable

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"

	"bohr/internal/ingest"
)

// Config configures one site's durability directory.
type Config struct {
	// Dir holds the WAL segments and snapshots (created if missing).
	Dir string
	// Fsync gates group-commit fsync on the WAL (see WALConfig.Fsync).
	Fsync bool
	// Logger receives recovery and snapshot events; nil disables.
	Logger *slog.Logger
	// segmentBytes is the WAL's rotation threshold (see WALConfig).
	segmentBytes int64
}

// Manager owns a site's durable state: the WAL journaling acknowledged
// ingest records and the snapshots bounding replay. One Manager per
// data directory; its Journal plugs into the ingest pipeline, and the
// serve layer drives Recover at startup and WriteSnapshot on cadence.
type Manager struct {
	cfg  Config
	wal  *WAL
	scan WALScan

	// snapMu serializes WriteSnapshot: snap keeps its buffers between calls.
	snapMu sync.Mutex
	snap   imageCodec
}

// RecoverySummary reports what Recover did.
type RecoverySummary struct {
	// SnapshotSeq is the WAL seq the restored snapshot covered (0 = no
	// snapshot, full-log replay).
	SnapshotSeq uint64
	// SkippedSnapshots names snapshot files skipped as corrupt.
	SkippedSnapshots []string
	// FramesReplayed / RecordsReplayed count WAL tail content applied.
	FramesReplayed  int
	RecordsReplayed int
	// RecordsDeduped counts replayed records the offset trackers already
	// covered — journaled twice across a crash, applied once.
	RecordsDeduped int
	// TruncatedBytes is the torn tail cut from the WAL, and
	// DroppedSegments any post-corruption segments discarded.
	TruncatedBytes  int64
	DroppedSegments int
	// WalSeq is the log's position after recovery.
	WalSeq uint64
	// Sources is the post-replay offset tracker state, name-sorted —
	// exactly what the restarted pipeline should restore, so resumed
	// client replays dedupe against everything recovered.
	Sources []ingest.SourceOffsets
}

// Open opens (or initializes) the durability directory: the WAL is
// scanned, any torn tail truncated, and the log readied for append.
// State is not touched — call Recover to rebuild it.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("durable: empty data dir")
	}
	wal, scan, err := OpenWAL(cfg.Dir, WALConfig{Fsync: cfg.Fsync, segmentBytes: cfg.segmentBytes})
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, wal: wal, scan: *scan}, nil
}

// Scan reports what opening the WAL found.
func (m *Manager) Scan() WALScan { return m.scan }

// Seq is the WAL's last assigned frame sequence number.
func (m *Manager) Seq() uint64 { return m.wal.Seq() }

// journal adapts the WAL to the pipeline's Journal interface: one
// acknowledged push = one frame, payload in the ingest wire codec.
type journal struct{ m *Manager }

func (j journal) Append(ctx context.Context, recs []ingest.Record) error {
	if len(recs) == 0 {
		return nil
	}
	_, err := j.m.wal.Append(ctx, ingest.EncodeBatch(recs))
	return err
}

// Journal returns the pipeline-facing appender. Its Append returns only
// after the records are framed in the WAL (and fsynced, in Fsync mode)
// — the pipeline calls it before acknowledging a push, which is what
// makes an ack a durability promise.
func (m *Manager) Journal() ingest.Journal { return journal{m} }

// Recover rebuilds state: it loads the newest valid snapshot, hands it
// to restore (skipped when no snapshot exists — the system starts from
// its seed state), then replays every WAL frame past the snapshot
// through the per-source offset trackers, handing only not-yet-covered
// records to apply. After a skipped snapshot the log seldom reaches back
// far enough — a checkpoint prunes what it covers — and Recover then
// fails with ErrLogGap, naming the file. Replay is exactly-once though the
// journal is at-least-once: a batch journaled and acked just before a
// crash, then re-sent by the client and journaled again after restart,
// dedupes on its offsets.
func (m *Manager) Recover(ctx context.Context, restore func(*State) error, apply func(ctx context.Context, recs []ingest.Record) error) (*RecoverySummary, error) {
	sum := &RecoverySummary{
		TruncatedBytes:  m.scan.TruncatedBytes,
		DroppedSegments: m.scan.DroppedSegments,
	}
	st, skipped, err := loadLatestSnapshot(m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	sum.SkippedSnapshots = skipped
	for _, name := range skipped {
		m.logWarn("durable: skipping corrupt snapshot", slog.String("file", name))
	}

	trackers := map[string]*ingest.Offsets{}
	if st != nil {
		sum.SnapshotSeq = st.WalSeq
		for _, so := range st.Sources {
			tr := &ingest.Offsets{}
			if err := tr.Restore(so.Watermark, so.Above); err != nil {
				return nil, fmt.Errorf("durable: recover source %q: %w", so.Source, err)
			}
			trackers[so.Source] = tr
		}
		if err := restore(st); err != nil {
			return nil, fmt.Errorf("durable: restore snapshot: %w", err)
		}
	}

	err = m.wal.Replay(sum.SnapshotSeq, func(seq uint64, payload []byte) error {
		recs, err := ingest.DecodeBatch(payload)
		if err != nil {
			// OpenWAL validated the frame's checksum, so this is a
			// logic-level impossibility, not disk corruption.
			return fmt.Errorf("durable: replay frame %d: %w", seq, err)
		}
		fresh := recs[:0]
		for _, rec := range recs {
			tr := trackers[rec.Source]
			if tr == nil {
				tr = &ingest.Offsets{}
				trackers[rec.Source] = tr
			}
			if !tr.Admit(rec.Offset) {
				sum.RecordsDeduped++
				continue
			}
			fresh = append(fresh, rec)
		}
		sum.FramesReplayed++
		sum.RecordsReplayed += len(fresh)
		if len(fresh) == 0 {
			return nil
		}
		return apply(ctx, fresh)
	})
	if err != nil {
		if len(skipped) > 0 {
			err = fmt.Errorf("%w (after skipping corrupt snapshot %s)", err, strings.Join(skipped, ", "))
		}
		return nil, err
	}

	sum.WalSeq = m.wal.Seq()
	names := make([]string, 0, len(trackers))
	for name := range trackers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wm, above := trackers[name].Export()
		sum.Sources = append(sum.Sources, ingest.SourceOffsets{Source: name, Watermark: wm, Above: above})
	}
	m.logInfo("durable: recovered",
		slog.Uint64("snapshot_seq", sum.SnapshotSeq),
		slog.Uint64("wal_seq", sum.WalSeq),
		slog.Int("frames_replayed", sum.FramesReplayed),
		slog.Int("records_replayed", sum.RecordsReplayed),
		slog.Int("records_deduped", sum.RecordsDeduped),
		slog.Int64("truncated_bytes", sum.TruncatedBytes))
	return sum, nil
}

// WriteSnapshot persists st (whose WalSeq the caller captured under a
// pipeline barrier, so the state and the log position agree), then
// prunes older snapshots and every WAL segment the new snapshot fully
// covers. It reads st's records and columns while it runs and returns
// the snapshot file's size.
func (m *Manager) WriteSnapshot(st *State) (int64, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	size, err := m.snap.writeFile(m.cfg.Dir, st)
	if err != nil {
		return 0, err
	}
	if err := pruneSnapshots(m.cfg.Dir, st.WalSeq); err != nil {
		return 0, err
	}
	if err := m.wal.Prune(st.WalSeq); err != nil {
		return 0, err
	}
	m.logInfo("durable: snapshot written", slog.Uint64("wal_seq", st.WalSeq), slog.Int64("bytes", size))
	return size, nil
}

// Close seals the WAL. Call after the pipeline has stopped journaling.
func (m *Manager) Close() error { return m.wal.Close() }

func (m *Manager) logInfo(msg string, attrs ...slog.Attr) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
	}
}

func (m *Manager) logWarn(msg string, attrs ...slog.Attr) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
	}
}
