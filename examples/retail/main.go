// Retail: TPC-DS-flavoured business intelligence through the SQL front
// end — an OLAP cube and its region dimension cube on the store_sales
// schema, then SQL aggregations executed under full Bohr.
//
//	go run ./examples/retail
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s := experiments.DefaultSetup()
	s.Datasets = 2
	s.Runs = 1
	cluster, w, err := s.Populated(workload.TPCDS, true, 0)
	if err != nil {
		return err
	}
	ds := w.Datasets[0]

	// 1. OLAP cube exploration: build the site-0 cube and roll it up.
	base, err := olap.BuildCube(ds.Schema, ds.Rows[0], 0)
	if err != nil {
		return err
	}
	fmt.Printf("Retail analytics on %s (schema %v)\n", ds.Name, ds.Schema.Dims())
	fmt.Printf("Site 0 cube: %d rows in %d cells\n\n", base.NumRows(), base.NumCells())

	byRegion, err := base.DimensionCube("region")
	if err != nil {
		return err
	}
	fmt.Println("Roll-up to the region dimension cube:")
	for _, cell := range byRegion.TopCells(4) {
		fmt.Printf("  %-8s %8.0f sales over %d transactions\n", cell.Coords[0], cell.Sum, cell.Count)
	}
	fmt.Println()

	// 2. SQL under full Bohr across the ten regions.
	sys, err := core.New(cluster, w, placement.Bohr, s.PlacementOptions(0))
	if err != nil {
		return err
	}
	prep, err := sys.Prepare(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("Bohr prepared: %.1f MB moved, probes checked in %.2fs\n\n", prep.MovedMB, prep.CheckTime)

	queries := []string{
		fmt.Sprintf("SELECT region, SUM(measure) FROM %s GROUP BY region ORDER BY value DESC", ds.Name),
		fmt.Sprintf("SELECT SUM(measure) FROM %s WHERE region = 'AMER'", ds.Name),
		fmt.Sprintf("SELECT store, SUM(measure) FROM %s WHERE region = 'APAC' GROUP BY store ORDER BY value DESC LIMIT 4", ds.Name),
		fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE region != 'AMER'", ds.Name),
	}
	for _, text := range queries {
		plan, err := sql.CompileString(text, ds.Schema)
		if err != nil {
			return err
		}
		res, err := sys.RunQuery(context.Background(), plan.Query)
		if err != nil {
			return err
		}
		rows := plan.PostProcess(res.Output())
		fmt.Printf("%s\n  QCT %.2fs, %d rows\n", text, res.QCT, len(rows))
		limit := len(rows)
		if limit > 4 {
			limit = 4
		}
		for _, kv := range rows[:limit] {
			fmt.Printf("  %-30s %.1f\n", strings.Join(workload.SplitKey(kv.Key), " | "), kv.Val)
		}
		fmt.Println()
	}
	return nil
}
