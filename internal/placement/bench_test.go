package placement_test

import (
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// BenchmarkPlanScheme plans what one pass of bench/'s fig6-batch workload
// plans, on its deployment (10 sites, 4 datasets, 1,000 rows per site, 250
// keys per pool, data seed 42): one op is a scheme planned for each of the
// five workload kinds. As in a pass, Iridium plans on contents nothing was
// derived from yet — the first scheme builds every site's cubes and cell
// columns — and Iridium-C and Bohr on snapshots Iridium has planned on.
func BenchmarkPlanScheme(b *testing.B) {
	s := experiments.DefaultSetup()
	s.Datasets, s.RowsPerSite, s.KeysPerPool, s.Runs, s.Seed = 4, 1000, 250, 1, 42
	opts := s.PlacementOptions(0)
	type snapshot struct {
		c *engine.Cluster
		w *workload.Workload
	}
	var snaps []snapshot
	for _, kind := range workload.Kinds() {
		c, w, err := s.Populated(kind, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := placement.PlanScheme(placement.Iridium, c.Clone(), w, opts); err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, snapshot{c, w})
	}
	for _, id := range []placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr} {
		b.Run(strings.ToLower(id.String()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sn := range snaps {
					c := sn.c.Clone()
					if id == placement.Iridium {
						b.StopTimer()
						fresh(c)
						b.StartTimer()
					}
					if _, err := placement.PlanScheme(id, c, sn.w, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}

// fresh gives every store of c a new content holding the same records.
func fresh(c *engine.Cluster) {
	for _, sd := range c.Data {
		for _, name := range c.DatasetNames() {
			if recs := sd.Records(name); recs != nil {
				sd.Restore(name, recs)
			}
		}
	}
}
