package sql_test

import (
	"context"
	"fmt"
	"strings"

	"bohr/internal/core"
	"bohr/internal/experiments"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

// ExampleCompileString is TPC-DS-flavoured business intelligence through
// the SQL front end: an OLAP cube and its region dimension cube on the
// store_sales schema, then SQL aggregations executed under full Bohr
// across the ten regions.
func ExampleCompileString() {
	s := experiments.DefaultSetup()
	s.Datasets = 2
	s.Runs = 1
	cluster, w, err := s.Populated(workload.TPCDS, true, 0)
	if err != nil {
		panic(err)
	}
	ds := w.Datasets[0]

	// The site-0 cube, rolled up to the region dimension.
	base, err := olap.BuildCube(ds.Schema, ds.Rows[0], 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s %v: site 0 has %d rows in %d cells\n", ds.Name, ds.Schema.Dims(), base.NumRows(), base.NumCells())
	byRegion, err := base.DimensionCube("region")
	if err != nil {
		panic(err)
	}
	for _, cell := range byRegion.TopCells(4) {
		fmt.Printf("  %-8s %8.0f sales over %d transactions\n", cell.Coords[0], cell.Sum, cell.Count)
	}

	sys, err := core.New(cluster, w, placement.Bohr, s.PlacementOptions(0))
	if err != nil {
		panic(err)
	}
	prep, err := sys.Prepare(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("Bohr prepared: %.1f MB moved, probes checked in %.2fs\n", prep.MovedMB, prep.CheckTime)

	for _, text := range []string{
		"SELECT region, SUM(measure) FROM tpcds-000 GROUP BY region ORDER BY value DESC",
		"SELECT SUM(measure) FROM tpcds-000 WHERE region = 'AMER'",
		"SELECT store, SUM(measure) FROM tpcds-000 WHERE region = 'APAC' GROUP BY store ORDER BY value DESC LIMIT 4",
		"SELECT COUNT(*) FROM tpcds-000 WHERE region != 'AMER'",
	} {
		plan, err := sql.CompileString(text, ds.Schema)
		if err != nil {
			panic(err)
		}
		res, err := sys.RunQuery(context.Background(), plan.Query)
		if err != nil {
			panic(err)
		}
		rows := plan.PostProcess(res.Output())
		fmt.Printf("%s\n  QCT %.2fs, %d rows\n", text, res.QCT, len(rows))
		for _, kv := range rows[:min(len(rows), 4)] {
			fmt.Printf("  %-30s %.1f\n", strings.Join(workload.SplitKey(kv.Key), " | "), kv.Val)
		}
	}
	// Output:
	// tpcds-000 [item store date region]: site 0 has 2500 rows in 395 cells
	//   AMER       106962 sales over 1063 transactions
	//   EMEA        61929 sales over 607 transactions
	//   APAC        45303 sales over 438 transactions
	//   LATAM       41324 sales over 392 transactions
	// Bohr prepared: 265.7 MB moved, probes checked in 1.14s
	// SELECT region, SUM(measure) FROM tpcds-000 GROUP BY region ORDER BY value DESC
	//   QCT 2.01s, 4 rows
	//   AMER                           1090913.2
	//   EMEA                           607662.3
	//   APAC                           473475.4
	//   LATAM                          388454.4
	// SELECT SUM(measure) FROM tpcds-000 WHERE region = 'AMER'
	//   QCT 1.97s, 1 rows
	//   <all>                          1090913.2
	// SELECT store, SUM(measure) FROM tpcds-000 WHERE region = 'APAC' GROUP BY store ORDER BY value DESC LIMIT 4
	//   QCT 2.20s, 4 rows
	//   store-002                      185358.9
	//   store-006                      67782.4
	//   store-010                      40497.1
	//   store-014                      27853.8
	// SELECT COUNT(*) FROM tpcds-000 WHERE region != 'AMER'
	//   QCT 1.97s, 1 rows
	//   <all>                          14317.0
}
