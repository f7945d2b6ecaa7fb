package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/ingest"
)

// hostileKeys and hostileVals are what a text codec gets wrong: the
// image must carry them bit for bit.
var (
	hostileKeys = []string{"", "a|b", "a" + engine.KeySep + "b", "100%", "line\nbreak", "\xff\xfe not utf-8", strings.Repeat("k", 100)}
	hostileVals = []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.SmallestNonzeroFloat64}
)

// sampleState builds a state of two datasets over three sites; n scales
// the records per site.
func sampleState(seed int64, n int) *State {
	rng := rand.New(rand.NewSource(seed))
	st := &State{
		WalSeq:        77,
		IngestBatches: 12,
		Sources: []ingest.SourceOffsets{
			{Source: "app", Watermark: 9},
			{Source: "web\n", Watermark: 1 << 40, Above: []uint64{1<<40 + 2, 1<<40 + 9}},
		},
		Datasets: []DatasetState{
			{Name: "sales", Records: make([][]engine.KV, 3)},
			{Name: "", Records: make([][]engine.KV, 3)},
		},
	}
	for _, ds := range st.Datasets {
		for si := range ds.Records {
			if si == 1 {
				continue // an empty site
			}
			for i := 0; i < n; i++ {
				kv := engine.KV{Key: fmt.Sprintf("page-%d|%d", rng.Intn(n), i), Val: rng.NormFloat64()}
				if i < len(hostileKeys) {
					kv.Key = hostileKeys[i]
				}
				if i < len(hostileVals) {
					kv.Val = hostileVals[i]
				}
				ds.Records[si] = append(ds.Records[si], kv)
			}
		}
	}
	return st
}

// dumpState renders a state with every float as its bit pattern, so two
// states compare equal exactly when they are the same bit for bit (NaNs
// included) and a mismatch shows where.
func dumpState(st *State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq %d batches %d sources %+v\n", st.WalSeq, st.IngestBatches, st.Sources)
	for _, ds := range st.Datasets {
		fmt.Fprintf(&b, "dataset %q sites %d\n", ds.Name, len(ds.Records))
		for si, recs := range ds.Records {
			fmt.Fprintf(&b, " site %d: %d records\n", si, len(recs))
			for _, kv := range recs {
				fmt.Fprintf(&b, "  %q %x\n", kv.Key, math.Float64bits(kv.Val))
			}
		}
	}
	return b.String()
}

// encodeImage is the snapshot file's bytes for st.
func encodeImage(t testing.TB, st *State) []byte {
	t.Helper()
	var image bytes.Buffer
	if _, err := new(imageCodec).encode(&image, st); err != nil {
		t.Fatal(err)
	}
	return image.Bytes()
}

// frameEnds returns the offset after the magic line and after each frame.
func frameEnds(t testing.TB, image []byte) []int {
	t.Helper()
	ends := []int{len(snapMagic)}
	for rest := image[len(snapMagic):]; len(rest) > 0; {
		_, after, err := DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = after
		ends = append(ends, len(image)-len(rest))
	}
	return ends
}

// setFrameCap cuts blocks at n bytes until restore is called.
func setFrameCap(n int) (restore func()) {
	old := frameCap
	frameCap = n
	return func() { frameCap = old }
}

func TestSnapshotImageRoundTrip(t *testing.T) {
	want := sampleState(1, 40)
	image := encodeImage(t, want)
	got, err := decodeImage(image[len(snapMagic):])
	if err != nil {
		t.Fatal(err)
	}
	if g, w := dumpState(got), dumpState(want); g != w {
		t.Fatalf("decoded state differs:\n got:\n%s\nwant:\n%s", g, w)
	}
	// One frame per block: header, six record blocks (the second
	// dataset's name rides in its first), trailer.
	if n := len(frameEnds(t, image)) - 1; n != 1+6+1 {
		t.Fatalf("image has %d frames", n)
	}
	// An empty state is an image too.
	got, err = decodeImage(encodeImage(t, &State{})[len(snapMagic):])
	if err != nil || dumpState(got) != dumpState(&State{}) {
		t.Fatalf("empty state decoded to %+v, %v", got, err)
	}
}

// TestSnapshotImageMultiFrame lowers the frame cap so that one site's
// records span many frames — the state is far larger than a frame — and
// checks the image still round trips, that no frame passes the cap, and
// that every way of cutting the file short or flipping a bit in it is
// refused.
func TestSnapshotImageMultiFrame(t *testing.T) {
	t.Cleanup(setFrameCap(4 << 10))
	want := sampleState(2, 2500)
	image := encodeImage(t, want)
	if len(image) < 40*frameCap {
		t.Fatalf("image is %d bytes, want it far over the %d-byte cap", len(image), frameCap)
	}
	ends := frameEnds(t, image)
	for i := 1; i < len(ends); i++ {
		if n := ends[i] - ends[i-1] - frameHeaderLen; n > frameCap {
			t.Fatalf("frame %d has %d payload bytes, cap %d", i-1, n, frameCap)
		}
	}
	// Uncut, the image has 8 frames; 4 sites hold records, each many
	// times the cap.
	if n := len(ends) - 1; n < 8+4*3 {
		t.Fatalf("image has %d frames; blocks were not cut", n)
	}
	got, err := decodeImage(image[len(snapMagic):])
	if err != nil {
		t.Fatal(err)
	}
	if g, w := dumpState(got), dumpState(want); g != w {
		t.Fatal("multi-frame image decoded to a different state")
	}

	// Through the file: the manager writes it, a second one recovers it.
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want.WalSeq = 0
	if size, err := m.WriteSnapshot(want); err != nil || size < int64(40*frameCap) {
		t.Fatalf("WriteSnapshot = %d, %v", size, err)
	}
	var restored *State
	if _, err := m.Recover(context.Background(),
		func(st *State) error { restored = st; return nil },
		func(context.Context, []ingest.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if restored == nil || dumpState(restored) != dumpState(want) {
		t.Fatal("recovered state differs from the one written")
	}

	// Truncation at every frame boundary (the trailer's absence must
	// tell), inside the trailer and inside the magic line.
	cuts := append([]int{3}, ends[:len(ends)-1]...)
	for c := ends[len(ends)-2] + 1; c < len(image); c++ {
		cuts = append(cuts, c)
	}
	path := filepath.Join(dir, snapName(1))
	for _, c := range cuts {
		if err := os.WriteFile(path, image[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := readSnapshotFile(path); err == nil {
			t.Fatalf("image cut at byte %d of %d decoded: %+v", c, len(image), st.WalSeq)
		}
	}
	// Trailing bytes, a dropped frame, a repeated frame, and one flipped
	// bit in each frame (header, payload start and end).
	bad := [][]byte{
		append(append([]byte(nil), image...), 0),
		append(append([]byte(nil), image[:ends[3]]...), image[ends[4]:]...),
		append(append([]byte(nil), image[:ends[4]]...), image[ends[3]:]...),
	}
	for i := 1; i < len(ends); i++ {
		for _, at := range []int{ends[i-1] + 2, ends[i-1] + frameHeaderLen, ends[i] - 1} {
			flipped := append([]byte(nil), image...)
			flipped[at] ^= 0x10
			bad = append(bad, flipped)
		}
	}
	for i, data := range bad {
		if _, err := decodeImage(data[len(snapMagic):]); err == nil {
			t.Fatalf("damaged image %d decoded", i)
		}
	}
}

// TestSnapshotBlockOverCap checks the one thing a cut cannot fix: a
// single key wider than a frame fails the checkpoint instead of looping
// or writing a frame recovery would refuse.
func TestSnapshotBlockOverCap(t *testing.T) {
	t.Cleanup(setFrameCap(256))
	st := &State{Datasets: []DatasetState{{Name: "d", Records: [][]engine.KV{{{Key: strings.Repeat("x", 300)}}}}}}
	dir := t.TempDir()
	if _, err := new(imageCodec).writeFile(dir, st); err == nil || !strings.Contains(err.Error(), "over frame cap") {
		t.Fatalf("writeFile = %v, want an over-cap error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed checkpoint left %d files behind", len(entries))
	}
}

// checkpointAndPrune journals 40 one-record batches over small segments,
// checkpoints (which prunes every covered segment), journals a tail of
// two more and closes. It returns the snapshot's path.
func checkpointAndPrune(t *testing.T, dir string) string {
	t.Helper()
	ctx := context.Background()
	m, err := Open(Config{Dir: dir, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	j := m.Journal()
	for off := uint64(1); off <= 40; off++ {
		if err := j.Append(ctx, mkRecs("web", off)); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _ := segmentFiles(dir)
	snap := &State{WalSeq: m.Seq(), Sources: []ingest.SourceOffsets{{Source: "web", Watermark: 40}}}
	if _, err := m.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := segmentFiles(dir); len(after) >= len(before) {
		t.Fatalf("checkpoint pruned nothing: %d -> %d segments", len(before), len(after))
	}
	for off := uint64(41); off <= 42; off++ {
		if err := j.Append(ctx, mkRecs("web", off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, snapName(40))
}

// recoverDir opens dir and recovers it, counting what was applied.
func recoverDir(t *testing.T, dir string) (sum *RecoverySummary, applied int, err error) {
	t.Helper()
	m, err := Open(Config{Dir: dir, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sum, err = m.Recover(context.Background(),
		func(*State) error { return nil },
		func(_ context.Context, recs []ingest.Record) error { applied += len(recs); return nil })
	return sum, applied, err
}

// TestRecoverFailsOnCorruptNewestSnapshot is the silent-data-loss
// regression: the checkpoint pruned the log it covers, so once its file
// fails its checksum there is nothing to fall back to — recovery used to
// return seed state plus the log's tail as if nothing were missing.
func TestRecoverFailsOnCorruptNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := checkpointAndPrune(t, dir)
	if sum, applied, err := recoverDir(t, dir); err != nil || sum.SnapshotSeq != 40 || applied != 2 {
		t.Fatalf("intact directory: summary %+v applied %d err %v", sum, applied, err)
	}

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, applied, err := recoverDir(t, dir)
	if err == nil {
		t.Fatalf("recovery over a corrupt newest snapshot returned a summary: %+v (%d applied)", sum, applied)
	}
	if !errors.Is(err, ErrLogGap) || !strings.Contains(err.Error(), filepath.Base(snap)) {
		t.Fatalf("error = %v, want ErrLogGap naming %s", err, filepath.Base(snap))
	}
	if applied != 0 {
		t.Fatalf("%d records applied before the gap was noticed", applied)
	}
}

// TestRecoverRefusesV1Snapshot hand-writes a BOHRSNAP1 file (magic line
// plus one frame of JSON, what PR 9 to 17 wrote) and a BOHRSNAP2 one (PR
// 18's frames, which put a cube block after each dataset's records):
// neither is corrupt, its log prefix is pruned, and no reader for it is
// kept, so recovery stops and says which format it met.
func TestRecoverRefusesV1Snapshot(t *testing.T) {
	dir := t.TempDir()
	snap := checkpointAndPrune(t, dir)
	current := encodeImage(t, &State{WalSeq: 40, Sources: []ingest.SourceOffsets{{Source: "web", Watermark: 40}}})
	for magic, file := range map[string][]byte{
		"BOHRSNAP1": EncodeFrame([]byte("BOHRSNAP1\n"), []byte(`{"wal_seq":40,"sources":[{"source":"web","watermark":40}]}`)),
		"BOHRSNAP2": append([]byte("BOHRSNAP2\n"), current[len(snapMagic):]...),
	} {
		if err := os.WriteFile(snap, file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := recoverDir(t, dir)
		if !errors.Is(err, ErrSnapshotFormat) || !strings.Contains(err.Error(), magic) ||
			!strings.Contains(err.Error(), filepath.Base(snap)) {
			t.Fatalf("error = %v, want ErrSnapshotFormat naming %s and the file", err, magic)
		}
	}
	// An old-format file is refused even when a readable older snapshot sits
	// beside it: skipping it would silently drop what it covered.
	if _, err := new(imageCodec).writeFile(dir, &State{WalSeq: 5}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadLatestSnapshot(dir); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("loadLatestSnapshot = %v, want ErrSnapshotFormat", err)
	}
}

// TestSnapshotStreamedFileMatchesImage writes a many-frame state through
// writeFile, which streams each frame to the temp file as it is cut, and
// requires the file to be byte for byte the image built in memory, of the
// size writeFile reports — and that image to be the bytes BOHRSNAP3 had
// before checkpoints were streamed (hashes taken at the last commit that
// buffered the whole file).
func TestSnapshotStreamedFileMatchesImage(t *testing.T) {
	pinned := func(st *State, want string) []byte {
		t.Helper()
		image := encodeImage(t, st)
		if got := fmt.Sprintf("%x", sha256.Sum256(image)); got != want {
			t.Fatalf("BOHRSNAP3 image bytes changed: sha256 %s, pinned %s", got, want)
		}
		return image
	}
	pinned(sampleState(1, 40), "29b769488e4c71e1a496a42c6e2a12cef377088a5ae3145f640fbad40402925f")
	t.Cleanup(setFrameCap(4 << 10))
	st := sampleState(2, 2500)
	image := pinned(st, "cf7d29be7a4928e779cb6900bbcce823264530511ba07d24439d9f0363518f9f")
	dir := t.TempDir()
	var c imageCodec
	for round := 0; round < 2; round++ { // the codec is reused between checkpoints
		size, err := c.writeFile(dir, st)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, snapName(st.WalSeq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, image) || size != int64(len(image)) {
			t.Fatalf("round %d: streamed file is %d bytes (reported %d), image %d; equal=%v",
				round, len(file), size, len(image), bytes.Equal(file, image))
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the snapshot directory, want the snapshot alone", len(entries))
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	writes int // writes attempted after the first failure
	failed bool
}

var errDiskFull = errors.New("injected: no space left on device")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.writes++
		return 0, errDiskFull
	}
	if len(p) > w.n {
		w.failed = true
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSnapshotWriteFailure fails the checkpoint's writer at every frame
// boundary and inside frames: the encode reports the writer's error,
// counts only the bytes taken and writes nothing after the failure. On a
// real file the same failure must leave no snapshot and no temp file —
// nothing is visible before the whole image is durable.
func TestSnapshotWriteFailure(t *testing.T) {
	t.Cleanup(setFrameCap(4 << 10))
	st := sampleState(3, 400)
	image := encodeImage(t, st)
	cuts := frameEnds(t, image)
	for _, end := range cuts[:len(cuts)-1] {
		for _, room := range []int{0, end, end + 3, end + frameHeaderLen + 1} {
			if room >= len(image) {
				continue // the trailer frame is shorter than that
			}
			w := &failAfter{n: room}
			size, err := new(imageCodec).encode(w, st)
			if !errors.Is(err, errDiskFull) || size != int64(room) || w.writes != 0 {
				t.Fatalf("writer with room for %d bytes: encode = %d, %v, %d writes after the failure", room, size, err, w.writes)
			}
		}
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a real file's writes with")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, snapName(st.WalSeq)+".tmp")); err != nil {
		t.Skip(err)
	}
	if _, err := new(imageCodec).writeFile(dir, st); err == nil {
		t.Fatal("writeFile onto a full device succeeded")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed checkpoint left %d files behind", len(entries))
	}
	if got, _, err := loadLatestSnapshot(dir); got != nil || err != nil {
		t.Fatalf("loadLatestSnapshot after a failed checkpoint = %v, %v", got, err)
	}
}
