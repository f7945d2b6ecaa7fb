package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
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

// TestCaptureStateSurvivesForwards is the checkpoint's side of the store's
// escape rule: a captured state holds the stores' record slices without a
// copy while ingest resumes, and the background snapshot writer reads them
// later. After a capture, 32 batches that each forward records — removes
// that compact a store in place once nobody holds its slice — must leave
// the captured state encoding to the same image as a deep copy taken at
// capture. At 1,000 rows per site a forwarding site keeps most of its
// records, so its Removes are the in-place kind.
func TestCaptureStateSurvivesForwards(t *testing.T) {
	const forwards, batch = 32, 12
	s := experiments.QuickSetup()
	s.RowsPerSite = 1000
	col := obs.NewCollector()
	sys := prepareSystem(t, s, col)
	sys.Obs = col
	b := NewEngineBackend(sys)

	forwarded := func() float64 { return col.MetricsSnapshot().Counters["core.ingest.forwarded"] }
	off := uint64(1)
	// forward applies batches until n of them forwarded records.
	forward := func(n int) {
		t.Helper()
		for try, moving := 0, 0; moving < n; try++ {
			if try == 8*n {
				t.Fatalf("only %d of %d batches forwarded records", moving, try)
			}
			recs := make([]ingest.Record, batch)
			for i := range recs {
				recs[i] = liveRecord(sys, "capture", off, try%sys.Cluster.N())
				off++
			}
			before := forwarded()
			if _, err := b.ApplyBatch(context.Background(), ingest.Batch{Records: recs}); err != nil {
				t.Fatal(err)
			}
			if forwarded() > before {
				moving++
			}
		}
	}
	// The capture finds the forwarding sites' slices held by nobody: their
	// last Remove copied, and nothing read them since.
	forward(forwards)
	st := b.CaptureState()
	copied := *st
	copied.Datasets = nil
	for _, ds := range st.Datasets {
		recs := make([][]engine.KV, len(ds.Records))
		for i, r := range ds.Records {
			recs[i] = slices.Clone(r)
		}
		copied.Datasets = append(copied.Datasets, durable.DatasetState{Name: ds.Name, Records: recs})
	}
	forward(forwards)
	if sys.IngestReplans() != 0 {
		t.Fatal("setup: a batch replanned")
	}
	if got, want := snapshotImage(t, st), snapshotImage(t, &copied); !bytes.Equal(got, want) {
		t.Fatalf("after %d forwarding batches the captured state encodes to a different image (%d vs %d bytes)", forwards, len(got), len(want))
	}
}
