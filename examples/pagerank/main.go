// PageRank: the AMPLab UDF workload (a simplified iterative PageRank)
// across the paper's ten EC2 regions, compared under all six schemes —
// the Figure 6/10 experiment at example scale.
//
//	go run ./examples/pagerank
package main

import (
	"context"
	"fmt"
	"log"

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
	s.Datasets = 4
	s.Runs = 1

	cluster, w, err := s.Populated(workload.BigDataUDF, false, 0)
	if err != nil {
		return err
	}
	vanilla, err := core.VanillaBaseline(context.Background(), cluster.Clone(), w)
	if err != nil {
		return err
	}

	fmt.Println("Iterative PageRank (AMPLab UDF) over ten EC2 regions")
	fmt.Printf("%d datasets × %d rows/site, %d sites\n\n", s.Datasets, s.RowsPerSite, s.Sites)
	fmt.Printf("%-12s %10s %14s %12s\n", "Scheme", "QCT", "Intermediate", "Reduction")

	for _, id := range placement.AllSchemes() {
		rep, err := core.Run(context.Background(), cluster.Clone(), w, id, s.PlacementOptions(0))
		if err != nil {
			return err
		}
		red := core.DataReduction(vanilla, rep.Run.IntermediateMBPerSite)
		fmt.Printf("%-12s %9.2fs %12.1fMB %11.1f%%\n",
			id, rep.Run.MeanQCT, stats.Sum(rep.Run.IntermediateMBPerSite), stats.Mean(red))
	}

	// Show the actual top-ranked pages from a full Bohr run.
	c := cluster.Clone()
	sys, err := core.New(c, w, placement.Bohr, s.PlacementOptions(0))
	if err != nil {
		return err
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		return err
	}
	res, err := sys.RunQuery(context.Background(), w.Datasets[0].DominantQuery().Query)
	if err != nil {
		return err
	}
	fmt.Printf("\nTop pages of %s after %d rank rounds:\n", w.Datasets[0].Name, len(res.Rounds))
	top := res.Output
	// Output is key-sorted; select the 5 highest scores.
	for rank := 0; rank < 5; rank++ {
		best := -1
		for i, kv := range top {
			if best < 0 || kv.Val > top[best].Val {
				best = i
			}
		}
		if best < 0 {
			break
		}
		fmt.Printf("  %d. %-50s %.2f\n", rank+1, top[best].Key, top[best].Val)
		top = append(top[:best], top[best+1:]...)
	}
	return nil
}
