package core

import (
	"context"
	"math"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

func setup(t *testing.T, kind workload.Kind) (*engine.Cluster, *workload.Workload) {
	t.Helper()
	cfg := workload.DefaultConfig(kind)
	cfg.Sites = 4
	cfg.Datasets = 3
	cfg.RowsPerSite = 600
	cfg.KeysPerPool = 100
	w, err := workload.Generate(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top, err := wan.NewTopology(
		[]string{"s0", "s1", "s2", "s3"},
		[]float64{4, 10, 20, 20}, []float64{4, 10, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCluster(top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(c); err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestNewValidation(t *testing.T) {
	c, w := setup(t, workload.BigDataScan)
	if _, err := New(nil, w, placement.Bohr, placement.Options{}); err == nil {
		t.Fatal("nil cluster should error")
	}
	if _, err := New(c, nil, placement.Bohr, placement.Options{}); err == nil {
		t.Fatal("nil workload should error")
	}
	// Empty cluster (not populated) should error.
	empty, _ := engine.NewCluster(c.Top, 1, 2, 100)
	if _, err := New(empty, w, placement.Bohr, placement.Options{}); err == nil {
		t.Fatal("unpopulated cluster should error")
	}
}

func TestPrepareAndRunAll(t *testing.T) {
	c, w := setup(t, workload.BigDataScan)
	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunQuery(context.Background(), w.Datasets[0].Queries[0].Query); err == nil {
		t.Fatal("queries before Prepare should error")
	}
	prep, err := sys.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prep.MovedMB <= 0 || prep.Moves == 0 {
		t.Fatalf("expected data movement: %+v", prep)
	}
	// The planner budgets movement with the per-link aggregate model; the
	// max-min fluid simulation can be slightly slower, so allow 15% slack.
	if prep.MoveDuration > 30*1.15 {
		t.Fatalf("movement %vs exceeded the 30s lag", prep.MoveDuration)
	}
	if prep.CheckTime <= 0 {
		t.Fatal("Bohr must spend probe-checking time")
	}
	// Prepare is idempotent: a second call returns the cached report.
	again, err := sys.Prepare(context.Background())
	if err != nil {
		t.Fatalf("second Prepare should be a no-op, got %v", err)
	}
	if again != prep {
		t.Fatal("second Prepare should return the cached report")
	}
	rep, err := sys.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(w.Datasets) {
		t.Fatalf("queries run = %d", len(rep.Queries))
	}
	if rep.MeanQCT <= 0 {
		t.Fatalf("mean QCT = %v", rep.MeanQCT)
	}
	if stats.Sum(rep.IntermediateMBPerSite) <= 0 {
		t.Fatal("no intermediate data recorded")
	}
	if sys.Plan() == nil {
		t.Fatal("plan should be exposed after Prepare")
	}
}

func TestVanillaBaselineAndDataReduction(t *testing.T) {
	c, w := setup(t, workload.BigDataScan)
	vanilla, err := VanillaBaseline(context.Background(), c.Clone(), w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sum(vanilla) <= 0 {
		t.Fatal("vanilla baseline produced nothing")
	}

	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	red := DataReduction(vanilla, rep.IntermediateMBPerSite)
	if len(red) != c.N() {
		t.Fatalf("reduction sites = %d", len(red))
	}
	var mean float64
	for _, r := range red {
		if r > 100 {
			t.Fatalf("reduction ratio above 100%%: %v", r)
		}
		mean += r
	}
	mean /= float64(len(red))
	if mean <= 0 {
		t.Fatalf("Bohr should reduce intermediate data on average, got %v%%", mean)
	}
}

func TestDataReductionEdgeCases(t *testing.T) {
	// Zero vanilla with scheme data is an undefined ratio — flagged, not
	// silently reported as 0 (the old behavior hid the regression).
	red := DataReduction([]float64{0, 10}, []float64{5, 5})
	if red[0] != ReductionUndefined {
		t.Fatalf("zero vanilla with scheme data should flag ReductionUndefined, got %v", red[0])
	}
	if red[1] != 50 {
		t.Fatalf("expected 50%%, got %v", red[1])
	}
	// Zero vanilla AND zero scheme is a true no-op: 0.
	red = DataReduction([]float64{0}, []float64{0})
	if red[0] != 0 {
		t.Fatalf("zero/zero should give 0, got %v", red[0])
	}
	// Negative reduction (scheme worse than vanilla) is representable.
	red = DataReduction([]float64{10}, []float64{12})
	if math.Abs(red[0]+20) > 1e-9 {
		t.Fatalf("expected -20%%, got %v", red[0])
	}
}
