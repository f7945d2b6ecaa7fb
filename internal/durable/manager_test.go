package durable

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/ingest"
)

func mkRecs(source string, offs ...uint64) []ingest.Record {
	recs := make([]ingest.Record, 0, len(offs))
	for _, off := range offs {
		recs = append(recs, ingest.Record{
			Source:  source,
			Offset:  off,
			Dataset: "sales",
			Site:    int(off % 3),
			Coords:  []string{"a", "b"},
			Measure: 1,
		})
	}
	return recs
}

func TestSnapshotWriteLoadPrune(t *testing.T) {
	dir := t.TempDir()
	older := &State{WalSeq: 5, IngestBatches: 2,
		Sources: []ingest.SourceOffsets{{Source: "web", Watermark: 5}}}
	newer := &State{WalSeq: 10, IngestBatches: 4,
		Sources: []ingest.SourceOffsets{{Source: "web", Watermark: 10, Above: []uint64{12}}}}
	var w imageCodec
	if _, err := w.writeFile(dir, older); err != nil {
		t.Fatal(err)
	}
	size, err := w.writeFile(dir, newer)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, snapName(10))); err != nil || info.Size() != size {
		t.Fatalf("writeFile reported %d bytes, file has %v (%v)", size, info, err)
	}
	st, skipped, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v on clean files", skipped)
	}
	if dumpState(st) != dumpState(newer) {
		t.Fatalf("loaded %+v, want %+v", st, newer)
	}

	// Corrupt the newest: the loader falls back to the older one (whether
	// the log still covers the difference is Replay's call, not its).
	newest := filepath.Join(dir, snapName(10))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, skipped, err = loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != snapName(10) {
		t.Fatalf("skipped = %v, want the corrupt newest", skipped)
	}
	if dumpState(st) != dumpState(older) {
		t.Fatalf("fallback loaded %+v, want %+v", st, older)
	}

	// Prune below seq 10 removes the seq-5 file.
	if err := pruneSnapshots(dir, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(5))); !os.IsNotExist(err) {
		t.Fatalf("seq-5 snapshot survived prune: %v", err)
	}
	if _, err := os.Stat(newest); err != nil {
		t.Fatalf("keep-seq snapshot removed: %v", err)
	}
}

// TestManagerRecoverFullLog journals batches with overlapping offsets
// (an at-least-once resend) and recovers with no snapshot: every acked
// record applies exactly once.
func TestManagerRecoverFullLog(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j := m.Journal()
	for _, batch := range [][]ingest.Record{
		mkRecs("web", 1, 2, 3),
		mkRecs("web", 3, 4), // offset 3 resent after a client retry
		mkRecs("app", 1, 2),
		mkRecs("web", 5),
	} {
		if err := j.Append(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	applied := map[string][]uint64{}
	sum, err := m2.Recover(ctx,
		func(*State) error { t.Fatal("restore called with no snapshot"); return nil },
		func(_ context.Context, recs []ingest.Record) error {
			for _, r := range recs {
				applied[r.Source] = append(applied[r.Source], r.Offset)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SnapshotSeq != 0 || sum.FramesReplayed != 4 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.RecordsDeduped != 1 {
		t.Fatalf("deduped = %d, want 1 (the resent offset)", sum.RecordsDeduped)
	}
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(applied["web"], want) {
		t.Fatalf("web applied %v, want %v", applied["web"], want)
	}
	if want := []uint64{1, 2}; !reflect.DeepEqual(applied["app"], want) {
		t.Fatalf("app applied %v, want %v", applied["app"], want)
	}
	wantSrc := []ingest.SourceOffsets{
		{Source: "app", Watermark: 2},
		{Source: "web", Watermark: 5},
	}
	if !reflect.DeepEqual(sum.Sources, wantSrc) {
		t.Fatalf("sources = %+v, want %+v", sum.Sources, wantSrc)
	}
}

// TestManagerRecoverSnapshotPlusTail writes a snapshot covering a log
// prefix, then recovers: the snapshot state restores, only the tail
// replays, and tail records the snapshot's trackers already cover
// dedupe away.
func TestManagerRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j := m.Journal()
	if err := j.Append(ctx, mkRecs("web", 1, 2, 3)); err != nil { // frame 1
		t.Fatal(err)
	}
	if err := j.Append(ctx, mkRecs("web", 4)); err != nil { // frame 2
		t.Fatal(err)
	}
	// Snapshot covers frames 1-2 (offsets 1-4 applied).
	snap := &State{
		WalSeq:        m.Seq(),
		IngestBatches: 2,
		Sources:       []ingest.SourceOffsets{{Source: "web", Watermark: 4}},
		Datasets: []DatasetState{{
			Name:    "sales",
			Records: [][]engine.KV{{{Key: "a|b", Val: 3}}},
		}},
	}
	if _, err := m.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	// Tail: frame 3 resends 4 (covered by snapshot trackers) plus fresh 5,6.
	if err := j.Append(ctx, mkRecs("web", 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var restored *State
	var applied []uint64
	sum, err := m2.Recover(ctx,
		func(st *State) error { restored = st; return nil },
		func(_ context.Context, recs []ingest.Record) error {
			for _, r := range recs {
				applied = append(applied, r.Offset)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if restored == nil || dumpState(restored) != dumpState(snap) {
		t.Fatalf("restored snapshot = %+v, want %+v", restored, snap)
	}
	if sum.SnapshotSeq != 2 || sum.FramesReplayed != 1 || sum.RecordsDeduped != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if want := []uint64{5, 6}; !reflect.DeepEqual(applied, want) {
		t.Fatalf("tail applied %v, want %v", applied, want)
	}
	if len(sum.Sources) != 1 || sum.Sources[0].Watermark != 6 {
		t.Fatalf("post-replay sources = %+v", sum.Sources)
	}
}

// TestManagerSnapshotPrunesWAL checks WriteSnapshot drops WAL segments
// the snapshot fully covers.
func TestManagerSnapshotPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j := m.Journal()
	for off := uint64(1); off <= 40; off++ {
		if err := j.Append(ctx, mkRecs("web", off)); err != nil {
			t.Fatal(err)
		}
	}
	before, _, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(before))
	}
	snap := &State{WalSeq: m.Seq(),
		Sources: []ingest.SourceOffsets{{Source: "web", Watermark: 40}}}
	if _, err := m.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	after, _, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("snapshot pruned nothing: %d -> %d segments", len(before), len(after))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery after the prune replays only what the snapshot missed.
	m2, err := Open(Config{Dir: dir, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sum, err := m2.Recover(ctx,
		func(*State) error { return nil },
		func(context.Context, []ingest.Record) error {
			t.Fatal("apply called though snapshot covers the whole log")
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SnapshotSeq != 40 || sum.RecordsReplayed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestDirSyncFailureKeepsLog: a directory fsync that fails fails the
// checkpoint before it prunes anything — the WAL segments and the
// previous snapshot survive — and a WAL rotation syncs the directory.
func TestDirSyncFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	j := m.Journal()
	for off := uint64(1); off <= 40; off++ {
		if err := j.Append(ctx, mkRecs("web", off)); err != nil {
			t.Fatal(err)
		}
		if off == 20 {
			if _, err := m.WriteSnapshot(&State{WalSeq: m.Seq()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, _, err := segmentFiles(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %v, %v", segs, err)
	}

	injected := errors.New("injected directory fsync failure")
	synced := 0
	defer func(was func(string) error) { syncDir = was }(syncDir)
	syncDir = func(string) error { synced++; return injected }
	if _, err := m.WriteSnapshot(&State{WalSeq: m.Seq()}); !errors.Is(err, injected) {
		t.Fatalf("WriteSnapshot = %v, want the directory fsync's error", err)
	}
	if after, _, err := segmentFiles(dir); err != nil || !slices.Equal(after, segs) {
		t.Fatalf("segments %v after a failed checkpoint, want %v (%v)", after, segs, err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(20))); err != nil {
		t.Fatalf("the previous snapshot: %v", err)
	}

	// Appending until the live segment rotates reaches the hook.
	synced, err = 0, nil
	for off := uint64(41); err == nil && off <= 80; off++ {
		err = j.Append(ctx, mkRecs("web", off))
	}
	if !errors.Is(err, injected) || synced != 1 {
		t.Fatalf("a rotation under a failing directory fsync: %v after %d syncs, want the fsync's error after 1", err, synced)
	}
}
