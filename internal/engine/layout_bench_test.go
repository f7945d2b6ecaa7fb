package engine_test

import (
	"testing"

	"bohr/internal/engine"
	"bohr/internal/rdd"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// BenchmarkLayoutAfterBatch is what a serving site's next layout costs
// after one ingest batch. A 5,000-record site in bohrd serve's shape (its
// data drawn as at 4 sites, 100 keys per pool; one machine of four
// executors) under Bohr's assigner with cube input takes a 256-record Add
// of known coordinates and forwards 256 records (engine.Forward),
// then is laid out. The write renumbered every partition, so every one is
// re-signed and re-clustered.
func BenchmarkLayoutAfterBatch(b *testing.B) {
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool = 4, 1, 5000, 100
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := siteRecords(w.Datasets[0], 0)
	stage := engine.Stage{Exec: engine.Executors{Machines: 1, PerMachine: 4}, Assigner: rdd.NewAssigner(1), CubeInput: true}
	var st engine.Store
	st.Add(recs...)
	if _, _, err := st.Layout(stage); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(7)
	batch := make([]engine.KV, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = recs[rng.Intn(len(recs))]
		}
		st.Add(batch...)
		if err := engine.Forward(&st, len(batch), rng); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Layout(stage); err != nil {
			b.Fatal(err)
		}
	}
}
