package durable

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collectReplay drains a full replay into parallel slices.
func collectReplay(t *testing.T, w *WAL, from uint64) ([]uint64, [][]byte) {
	t.Helper()
	var seqs []uint64
	var payloads [][]byte
	err := w.Replay(from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, scan, err := OpenWAL(dir, WALConfig{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Frames != 0 || scan.LastSeq != 0 {
		t.Fatalf("fresh dir scan = %+v", scan)
	}
	ctx := context.Background()
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%03d", i))
		want = append(want, p)
		seq, err := w.Append(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if w.SyncedSeq() != 20 {
		t.Fatalf("synced = %d after fsync appends", w.SyncedSeq())
	}
	seqs, payloads := collectReplay(t, w, 0)
	if len(seqs) != 20 || seqs[0] != 1 || seqs[19] != 20 {
		t.Fatalf("replay seqs = %v", seqs)
	}
	for i := range want {
		if string(payloads[i]) != string(want[i]) {
			t.Fatalf("payload %d = %q, want %q", i, payloads[i], want[i])
		}
	}
	// Replay from a mid position skips the covered prefix.
	seqs, _ = collectReplay(t, w, 15)
	if len(seqs) != 5 || seqs[0] != 16 {
		t.Fatalf("tail replay seqs = %v", seqs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: scan sees everything, appending continues the numbering.
	w2, scan2, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if scan2.Frames != 20 || scan2.LastSeq != 20 || scan2.TruncatedBytes != 0 {
		t.Fatalf("reopen scan = %+v", scan2)
	}
	seq, err := w2.Append(ctx, []byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 21 {
		t.Fatalf("seq after reopen = %d, want 21", seq)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// ~40-byte frames against a 128-byte threshold force rotations.
	w, _, err := OpenWAL(dir, WALConfig{segmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := w.Append(ctx, []byte(fmt.Sprintf("rotating-payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, seqs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected ≥3 segments, got %v", names)
	}
	if seqs[0] != 1 {
		t.Fatalf("first segment starts at %d", seqs[0])
	}
	w2, scan, err := OpenWAL(dir, WALConfig{segmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if scan.Frames != 30 || scan.LastSeq != 30 || scan.Segments != len(names) {
		t.Fatalf("scan = %+v over %d segments", scan, len(names))
	}
	replayed, _ := collectReplay(t, w2, 0)
	if len(replayed) != 30 {
		t.Fatalf("replayed %d frames, want 30", len(replayed))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	flipped := EncodeFrame(nil, []byte("xyz"))
	flipped[len(flipped)-1] ^= 0xff // checksum no longer matches
	for name, garbage := range map[string][]byte{
		"partial-header":    {0x07},
		"huge-length":       {0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03, 0x04},
		"truncated-payload": EncodeFrame(nil, []byte("xy"))[:9],
		"bad-checksum":      flipped,
		"zero-block":        make([]byte, 64), // decodes as empty frames
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := OpenWAL(dir, WALConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < 5; i++ {
				if _, err := w.Append(ctx, []byte(fmt.Sprintf("good-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			names, _, err := segmentFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := filepath.Join(dir, names[len(names)-1])
			f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w2, scan, err := OpenWAL(dir, WALConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if scan.Frames != 5 || scan.LastSeq != 5 {
				t.Fatalf("scan = %+v, want 5 intact frames", scan)
			}
			if scan.TruncatedBytes != int64(len(garbage)) {
				t.Fatalf("truncated %d bytes, want %d", scan.TruncatedBytes, len(garbage))
			}
			// The torn bytes are physically gone and appends continue clean.
			if seq, err := w2.Append(context.Background(), []byte("resumed")); err != nil || seq != 6 {
				t.Fatalf("append after truncate: seq %d, err %v", seq, err)
			}
			seqs, _ := collectReplay(t, w2, 0)
			if len(seqs) != 6 {
				t.Fatalf("replay after truncate saw %d frames", len(seqs))
			}
		})
	}
}

func TestWALCorruptionMidLogDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{segmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := w.Append(ctx, []byte(fmt.Sprintf("rotating-payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(names))
	}
	// Flip a byte in the FIRST segment's first frame payload.
	first := filepath.Join(dir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderLen] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, scan, err := OpenWAL(dir, WALConfig{segmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if scan.Frames != 0 || scan.LastSeq != 0 {
		t.Fatalf("scan = %+v, want empty log after first-frame corruption", scan)
	}
	if scan.DroppedSegments != len(names)-1 {
		t.Fatalf("dropped %d segments, want %d", scan.DroppedSegments, len(names)-1)
	}
	if scan.TruncatedBytes == 0 {
		t.Fatal("no truncation reported")
	}
	// Log is usable again from seq 1.
	if seq, err := w2.Append(ctx, []byte("fresh")); err != nil || seq != 1 {
		t.Fatalf("append after corruption: seq %d, err %v", seq, err)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{Fsync: true, segmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := w.Append(ctx, []byte(fmt.Sprintf("writer-%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w.Seq() != writers*perWriter {
		t.Fatalf("seq = %d, want %d", w.Seq(), writers*perWriter)
	}
	if w.SyncedSeq() != w.Seq() {
		t.Fatalf("synced = %d, seq = %d: fsync-mode append returned before durability", w.SyncedSeq(), w.Seq())
	}
	seqs, _ := collectReplay(t, w, 0)
	if len(seqs) != writers*perWriter {
		t.Fatalf("replayed %d frames, want %d", len(seqs), writers*perWriter)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALPrune(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{segmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := w.Append(ctx, []byte(fmt.Sprintf("rotating-payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, seqs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(before))
	}
	// Prune to the midpoint: segments wholly ≤ cut go, the rest stay.
	cut := seqs[len(seqs)/2] - 1
	if err := w.Prune(cut); err != nil {
		t.Fatal(err)
	}
	after, afterSeqs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("prune removed nothing: %d -> %d segments", len(before), len(after))
	}
	if afterSeqs[0] != cut+1 {
		t.Fatalf("first surviving segment starts at %d, want %d", afterSeqs[0], cut+1)
	}
	// Everything past the cut still replays.
	var got []uint64
	if err := w.Replay(cut, func(seq uint64, _ []byte) error {
		got = append(got, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30-int(cut) || got[0] != cut+1 || got[len(got)-1] != 30 {
		t.Fatalf("post-prune replay seqs = %v", got)
	}
	// Pruning at the live head never deletes the live segment.
	if err := w.Prune(99); err != nil {
		t.Fatal(err)
	}
	names, _, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("prune deleted the live segment")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
