package core_test

import (
	"context"
	"fmt"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// ExampleRun is the smallest complete Bohr pipeline — three sites, one
// dataset of web logs, one recurring query — through core.Run: probe-based
// similarity checking, joint data/task placement, similarity-aware
// movement in the query lag, and the query speedup it buys over Iridium-C.
func ExampleRun() {
	// Three sites: Tokyo is the bottleneck (slow uplink, most data) —
	// the setting of the paper's Figure 1.
	top, err := wan.NewTopology(
		[]string{"Tokyo", "Oregon", "Ireland"},
		[]float64{4, 20, 20},
		[]float64{4, 20, 20},
	)
	if err != nil {
		panic(err)
	}

	// One web-log dataset whose records overlap across sites.
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites = 3
	cfg.Datasets = 1
	cfg.RowsPerSite = 3000
	cfg.Overlap = 0.6
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		panic(err)
	}

	for _, id := range []placement.SchemeID{placement.IridiumC, placement.Bohr} {
		cluster, err := engine.NewCluster(top, 1, 4, 10_000)
		if err != nil {
			panic(err)
		}
		if err := w.Populate(cluster); err != nil {
			panic(err)
		}
		// Prepare (probes, placement, movement in the lag) and the full
		// workload run, as one report.
		rep, err := core.Run(context.Background(), cluster, w, id,
			placement.Options{Lag: 30, ProbeK: 30, Seed: 1})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s moved %.1f MB in the 30s lag; QCT %.2fs, intermediate data %.1f MB\n",
			id, rep.Prepare.MovedMB, rep.Run.MeanQCT, stats.Sum(rep.Run.IntermediateMBPerSite))
	}
	// Output:
	// Iridium-C  moved 20.0 MB in the 30s lag; QCT 2.17s, intermediate data 30.1 MB
	// Bohr       moved 23.3 MB in the 30s lag; QCT 1.68s, intermediate data 23.0 MB
}
