// Dynamic: the §8.6 highly-dynamic-dataset experiment as a runnable
// scenario — 25% of each dataset is present at the first query, the rest
// streams in 5% batches between recurring queries, and Bohr re-runs
// similarity checking and placement every five arrivals.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := experiments.DefaultSetup()
	s.Datasets = 3
	s.Runs = 1

	fmt.Println("Highly dynamic datasets (§8.6): batches arrive between recurring queries")
	fmt.Println()

	for _, kind := range []workload.Kind{workload.TPCDS, workload.Facebook} {
		cluster, w, err := s.Populated(kind, false, 0)
		if err != nil {
			return err
		}

		// Static reference: all data present up front.
		staticDoc, err := core.Run(context.Background(), cluster.Clone(), w, placement.Bohr, s.PlacementOptions(0))
		if err != nil {
			return err
		}
		staticRep := staticDoc.Run

		// Dynamic: empty cluster, batches ingested between arrivals.
		empty, err := s.BuildCluster()
		if err != nil {
			return err
		}
		dyn := experiments.DefaultDynamicConfig()
		dyn.Queries = 16 // 0.25 + 15 × 0.05 delivers the full corpus
		rep, err := experiments.RunDynamic(context.Background(), empty, w, placement.Bohr, dyn, s.PlacementOptions(0))
		if err != nil {
			return err
		}

		fmt.Printf("%s: static QCT %.2fs | dynamic arrivals (replan every %d):\n",
			kind, staticRep.MeanQCT, dyn.ReplanEvery)
		var bars []string
		for _, q := range rep.QCTs {
			bars = append(bars, fmt.Sprintf("%.1f", q))
		}
		fmt.Printf("  QCT per arrival: %s\n", strings.Join(bars, " "))
		tailMean := stats.Mean(rep.QCTs[len(rep.QCTs)-dyn.ReplanEvery:])
		fmt.Printf("  full-data tail mean %.2fs vs static %.2fs (%d replans, %d batches)\n\n",
			tailMean, staticRep.MeanQCT, rep.Replans, rep.BatchesDelivered)
	}
	return nil
}
