// Quickstart: the smallest complete Bohr pipeline — three sites, one
// dataset of web logs, one recurring query — showing pre-processing into
// OLAP cubes, probe-based similarity checking, joint data/task placement,
// similarity-aware movement, and the query speedup it buys.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three sites: Tokyo is the bottleneck (slow uplink, most data) —
	// the setting of the paper's Figure 1.
	top, err := wan.NewTopology(
		[]string{"Tokyo", "Oregon", "Ireland"},
		[]float64{4, 20, 20},
		[]float64{4, 20, 20},
	)
	if err != nil {
		return err
	}

	// Generate one web-log dataset whose records overlap across sites.
	cfg := workload.DefaultConfig(workload.BigDataScan)
	cfg.Sites = 3
	cfg.Datasets = 1
	cfg.RowsPerSite = 3000
	cfg.Overlap = 0.6
	w, err := workload.Generate(workload.BigDataScan, cfg)
	if err != nil {
		return err
	}

	runScheme := func(id placement.SchemeID) (qct float64, interMB float64, err error) {
		cluster, err := engine.NewCluster(top, 1, 4, 10_000)
		if err != nil {
			return 0, 0, err
		}
		if err := w.Populate(cluster); err != nil {
			return 0, 0, err
		}
		// One-shot pipeline: Prepare (probes, placement, movement in the
		// lag) + the full workload run, as one machine-readable report.
		rep, err := core.Run(context.Background(), cluster, w, id,
			placement.Options{Lag: 30, ProbeK: 30, Seed: 1})
		if err != nil {
			return 0, 0, err
		}
		fmt.Printf("%-10s moved %.1f MB across the WAN in the %0.fs query lag\n",
			id, rep.Prepare.MovedMB, 30.0)
		return rep.Run.MeanQCT, stats.Sum(rep.Run.IntermediateMBPerSite), nil
	}

	fmt.Println("Bohr quickstart: one page-score dataset across Tokyo / Oregon / Ireland")
	fmt.Println()
	iridiumQCT, iridiumInter, err := runScheme(placement.IridiumC)
	if err != nil {
		return err
	}
	bohrQCT, bohrInter, err := runScheme(placement.Bohr)
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Printf("%-10s QCT %.2fs, intermediate data %.1f MB\n", "Iridium-C", iridiumQCT, iridiumInter)
	fmt.Printf("%-10s QCT %.2fs, intermediate data %.1f MB\n", "Bohr", bohrQCT, bohrInter)
	if bohrQCT < iridiumQCT {
		fmt.Printf("\nBohr is %.0f%% faster by moving records that combine at their destination.\n",
			100*(1-bohrQCT/iridiumQCT))
	}
	return nil
}
