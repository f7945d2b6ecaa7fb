package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"bohr/internal/durable"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/ingest"
	"bohr/internal/obs"
)

// snapshotImage writes st through a fresh manager and returns the snapshot
// file's bytes.
func snapshotImage(t *testing.T, st *durable.State) []byte {
	t.Helper()
	dir := t.TempDir()
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files %v, %v", files, err)
	}
	image, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// forwarder returns a function that applies batches through b until n of
// them forwarded records: removes that compact a store in place once
// nobody holds its slice. Every batch's offsets continue the last's.
func forwarder(t *testing.T, b *EngineBackend, col *obs.Collector) func(n int) {
	const batch = 12
	sys := b.sys
	forwarded := func() float64 { return col.MetricsSnapshot().Counters["core.ingest.forwarded"] }
	off := uint64(1)
	return func(n int) {
		t.Helper()
		for try, moving := 0, 0; moving < n; try++ {
			if try == 8*n {
				t.Errorf("only %d of %d batches forwarded records", moving, try)
				return
			}
			recs := make([]ingest.Record, batch)
			for i := range recs {
				recs[i] = liveRecord(sys, "capture", off, try%sys.Cluster.N())
				off++
			}
			before := forwarded()
			if _, err := b.ApplyBatch(context.Background(), ingest.Batch{Records: recs}); err != nil {
				t.Error(err)
				return
			}
			if forwarded() > before {
				moving++
			}
		}
	}
}

// forwardingBackend is a backend over a quick setup at 1,000 rows per site,
// where a forwarding site keeps most of its records, so its removes are the
// in-place kind, and its collector.
func forwardingBackend(t *testing.T) (*EngineBackend, *obs.Collector) {
	s := experiments.QuickSetup()
	s.RowsPerSite = 1000
	col := obs.NewCollector()
	sys := prepareSystem(t, s, col)
	sys.Obs = col
	return NewEngineBackend(sys), col
}

// deepCopy returns the captured state's datasets, records copied.
func deepCopy(st *durable.State) []durable.DatasetState {
	var out []durable.DatasetState
	for _, ds := range st.Datasets {
		recs := make([][]engine.KV, len(ds.Records))
		for i, r := range ds.Records {
			recs[i] = slices.Clone(r)
		}
		out = append(out, durable.DatasetState{Name: ds.Name, Records: recs})
	}
	return out
}

// TestCaptureStateSurvivesForwards is the checkpoint's side of the store's
// lease rule: a captured state leases the stores' record slices without a
// copy while ingest resumes, and the background snapshot writer reads them
// later. After a capture, 32 batches that each forward records must leave
// the captured state encoding to the same image as a deep copy taken at
// capture.
func TestCaptureStateSurvivesForwards(t *testing.T) {
	const forwards = 32
	b, col := forwardingBackend(t)
	forward := forwarder(t, b, col)
	// The capture finds the forwarding sites' slices held by nobody: their
	// last Remove copied, and nothing read them since.
	forward(forwards)
	st := b.CaptureState()
	defer st.Release()
	copied := *st
	copied.Datasets, copied.Leases = deepCopy(st), nil
	forward(forwards)
	if b.sys.IngestReplans() != 0 {
		t.Fatal("setup: a batch replanned")
	}
	if got, want := snapshotImage(t, st), snapshotImage(t, &copied); !bytes.Equal(got, want) {
		t.Fatalf("after %d forwarding batches the captured state encodes to a different image (%d vs %d bytes)", forwards, len(got), len(want))
	}
}

// TestSnapshotEncodesWhileForwardsRun races a background checkpoint against
// forwards on the same stores (run it under -race): the snapshot is written
// from the captured state, whose leases end when the write returns, while
// 32 forwarding batches apply beside it. The snapshot must decode to the
// state as captured, and the forwards after the release compact in place
// again without disturbing it.
func TestSnapshotEncodesWhileForwardsRun(t *testing.T) {
	const forwards = 32
	b, col := forwardingBackend(t)
	forward := forwarder(t, b, col)
	forward(4) // the stores' arrays are their own again
	st := b.CaptureState()
	want, batches := deepCopy(st), st.IngestBatches

	dir := t.TempDir()
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan error, 1)
	go func() {
		defer st.Release()
		_, err := m.WriteSnapshot(st)
		written <- err
	}()
	forward(forwards)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if b.sys.IngestReplans() != 0 {
		t.Fatal("setup: a batch replanned")
	}

	m, err = durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var got *durable.State
	restore := func(st *durable.State) error { got = st; return nil }
	apply := func(context.Context, []ingest.Record) error { return fmt.Errorf("no WAL was written") }
	if _, err := m.Recover(context.Background(), restore, apply); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.IngestBatches != batches || !reflect.DeepEqual(got.Datasets, want) {
		t.Fatal("the snapshot written beside the forwards does not decode to the state captured")
	}
}

// releaseCounter is an engine backend whose captured states count the
// releases of their leases.
type releaseCounter struct {
	*EngineBackend
	released atomic.Int32
}

func (b *releaseCounter) CaptureState() *durable.State {
	st := b.EngineBackend.CaptureState()
	st.Leases = append(st.Leases, func() { b.released.Add(1) })
	return st
}

// TestSnapshotNowReleasesItsLeases: SnapshotNow ends the leases its capture
// took once the write returns, whether the write succeeded or failed (here
// because the data directory is gone).
func TestSnapshotNowReleasesItsLeases(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "data")
	sys := smallSystem(t)
	b := &releaseCounter{EngineBackend: NewEngineBackend(sys)}
	fe := New(b, Config{}, nil)
	m, err := durable.Open(durable.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pipe, _, err := fe.EnableDurableIngest(ctx, ingest.Config{MaxBatchRecords: 8, FlushInterval: -1}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	pushRange(t, sys, pipe, "web", 1, 40)
	if err := fe.SnapshotNow(ctx); err != nil || b.released.Load() != 1 {
		t.Fatalf("a snapshot written: %v, %d releases; want one", err, b.released.Load())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fe.SnapshotNow(ctx); err == nil || b.released.Load() != 2 {
		t.Fatalf("a snapshot into a removed directory: %v, %d releases; want an error and two", err, b.released.Load())
	}
}
