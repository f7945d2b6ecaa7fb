package engine_test

import (
	"math"
	"runtime"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// afterBatchSite is BenchmarkLayoutAfterBatch's site: 5,000 records in
// bohrd serve's shape (its data drawn as at 4 sites, 100 keys per pool),
// laid out once on one machine of four executors under Bohr's assigner
// with cube input.
func afterBatchSite(tb testing.TB) (*engine.Store, []engine.KV, engine.Stage) {
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool = 4, 1, 5000, 100
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	recs := siteRecords(w.Datasets[0], 0)
	stage := engine.Stage{Exec: engine.Executors{Machines: 1, PerMachine: 4}, Assigner: rdd.NewAssigner(1), CubeInput: true}
	st := new(engine.Store)
	st.Add(recs...)
	if _, _, err := st.Layout(stage); err != nil {
		tb.Fatal(err)
	}
	return st, recs, stage
}

// writeBatch is one ingest batch at the site: a 256-record Add of known
// coordinates, and 256 records forwarded (engine.Forward).
func writeBatch(tb testing.TB, st *engine.Store, recs, batch []engine.KV, rng interface{ Intn(int) int }) {
	for j := range batch {
		batch[j] = recs[rng.Intn(len(recs))]
	}
	st.Add(batch...)
	if err := engine.Forward(st, len(batch), stats.NewRand(int64(rng.Intn(1<<30)))); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLayoutAfterBatch is what a serving site's next layout costs
// after one ingest batch (writeBatch, outside the timer): the write
// renumbered every partition, so every one is re-signed and re-clustered,
// and the distinct keys are counted afresh.
func BenchmarkLayoutAfterBatch(b *testing.B) {
	st, recs, stage := afterBatchSite(b)
	rng := stats.NewRand(7)
	batch := make([]engine.KV, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		writeBatch(b, st, recs, batch, rng)
		b.StartTimer()
		if _, _, err := st.Layout(stage); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLayoutAfterBatchAllocs bounds what the site of
// BenchmarkLayoutAfterBatch allocates for its next layout and the key ids
// a Select scans after one batch: the ids carry across the write, so the
// rebuild allocates a column of 4 bytes per record, interns the batch's
// few new keys, and beside that only per-partition state (partitions,
// signatures, the similarity matrix, k-means) — a 24 KiB allowance. The
// least of 20 cycles counts: a cycle whose pooled scratch a collection
// emptied (or, under -race, Put dropped) allocates it again.
func TestLayoutAfterBatchAllocs(t *testing.T) {
	st, recs, stage := afterBatchSite(t)
	rng := stats.NewRand(7)
	batch := make([]engine.KV, 256)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 20 {
		writeBatch(t, st, recs, batch, rng)
		runtime.ReadMemStats(&before)
		if _, hit, err := st.Layout(stage); err != nil || hit {
			t.Fatalf("layout after a batch: hit %v, %v", hit, err)
		}
		engine.KeyIDs(st)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	bound := uint64(4*st.Len() + 24<<10)
	t.Logf("%d B per layout of %d records (bound %d)", least, st.Len(), bound)
	if least > bound {
		t.Fatalf("a layout of %d records after a batch allocates %d B, want at most %d (4 B/record + 24 KiB)", st.Len(), least, bound)
	}
}
