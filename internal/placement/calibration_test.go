package placement

import (
	"context"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/lp"
	"bohr/internal/workload"
)

func TestTensorToMoves(t *testing.T) {
	sts := []*DatasetStats{{Name: "a"}}
	tensor := [][][]float64{{
		{0, 5, 0},
		{0, 0, 1e-9}, // below threshold: dropped
		{2, 0, 0},
	}}
	moves := tensorToMoves(sts, tensor)
	if len(moves) != 2 {
		t.Fatalf("moves = %+v", moves)
	}
	if moves[0].Src != 0 || moves[0].Dst != 1 || moves[0].MB != 5 {
		t.Fatalf("move 0 = %+v", moves[0])
	}
	if moves[1].Src != 2 || moves[1].Dst != 0 || moves[1].MB != 2 {
		t.Fatalf("move 1 = %+v", moves[1])
	}
}

// newProfiler is the profiler PlanScheme builds, for a plan whose movers
// the caller chooses.
func newProfiler(t *testing.T, c *engine.Cluster, w *workload.Workload, plan *Plan, seed int64) *profiler {
	t.Helper()
	all, profiles, err := computeAllStats(c, w, 30)
	if err != nil {
		t.Fatal(err)
	}
	plan.Stats = all
	return &profiler{c: c, plan: plan, seed: seed, profiles: profiles}
}

func TestProfileVolumesMatchesEngine(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	plan := &Plan{movers: map[string]engine.Mover{}}
	prof := newProfiler(t, c, w, plan, 1)
	f, err := prof.volumes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != len(w.Datasets) {
		t.Fatalf("datasets = %d", len(f))
	}
	// With no moves the profile equals a plain run's intermediate volumes.
	res, err := c.Run(context.Background(), engine.JobConfig{Query: w.Datasets[0].DominantQuery().Query})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f[0] {
		if d := f[0][i] - res.IntermediateMBPerSite[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("site %d profiled %v vs realized %v", i, f[0][i], res.IntermediateMBPerSite[i])
		}
	}
	// Profiling must not mutate the real cluster.
	before := len(c.Data[0].Records(w.Datasets[0].Name))
	moves := []engine.MoveSpec{{Dataset: w.Datasets[0].Name, Src: 0, Dst: 1, MB: 0.01}}
	plan.movers[w.Datasets[0].Name] = engine.RandomMover{}
	if _, err := prof.volumes(moves); err != nil {
		t.Fatal(err)
	}
	if len(c.Data[0].Records(w.Datasets[0].Name)) != before {
		t.Fatal("profiling mutated the cluster")
	}
}

func TestCalibrateIncomingScalesEstimates(t *testing.T) {
	in := &lp.PlacementInput{
		Sites: 2, Datasets: 1,
		Input:     [][]float64{{100, 50}},
		Reduction: []float64{1},
		SelfSim:   [][]float64{{0, 0}},
		CrossSim:  [][][]float64{{{0, 0.8}, {0.8, 0}}},
		Up:        []float64{10, 10},
		Down:      []float64{10, 10},
		Lag:       30,
	}
	sts := []*DatasetStats{{Name: "a"}}
	tensor := [][][]float64{{{0, 40}, {0, 0}}}
	// Prediction: site 1 keeps 50 + incoming 40×0.2 = 58. Pretend reality
	// measured 66 (incoming combined at half the predicted rate).
	fReal := [][]float64{{60, 66}}
	if !calibrateIncoming(in, sts, tensor, fReal) {
		t.Fatal("calibration should report a change")
	}
	// Un-combined incoming fraction doubled: 0.2 → 0.4 ⇒ S = 0.6.
	if got := in.CrossSim[0][0][1]; got < 0.55 || got > 0.65 {
		t.Fatalf("calibrated cross-sim = %v, want ≈0.6", got)
	}
	// A second pass with matching reality reports no change.
	fPred := in.ShuffleVolumes(tensor)
	if calibrateIncoming(in, sts, tensor, fPred) {
		t.Fatal("matching predictions should not re-calibrate")
	}
}

func TestCalibrateIncomingSkipsNonReceivers(t *testing.T) {
	in := &lp.PlacementInput{
		Sites: 2, Datasets: 1,
		Input:     [][]float64{{100, 50}},
		Reduction: []float64{1},
		SelfSim:   [][]float64{{0, 0}},
		CrossSim:  [][][]float64{{{0, 0.8}, {0.8, 0}}},
		Up:        []float64{10, 10},
		Down:      []float64{10, 10},
	}
	sts := []*DatasetStats{{Name: "a"}}
	zero := [][][]float64{{{0, 0}, {0, 0}}}
	if calibrateIncoming(in, sts, zero, [][]float64{{100, 50}}) {
		t.Fatal("no movement means nothing to calibrate")
	}
	if in.CrossSim[0][0][1] != 0.8 {
		t.Fatal("estimates must be untouched without movement")
	}
}

func TestPlannedTimeRanksPlans(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	plan := &Plan{movers: map[string]engine.Mover{}}
	for _, ds := range w.Datasets {
		plan.movers[ds.Name] = engine.RandomMover{}
	}
	prof := newProfiler(t, c, w, plan, 1)
	tNone, err := prof.plannedTime(c.Top, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tNone <= 0 {
		t.Fatalf("no-move plan time = %v", tNone)
	}
	// A plan that piles half of every fast site's data onto the slowest
	// site must profile strictly worse than doing nothing. (Moving
	// EVERYTHING to one site would legitimately zero the shuffle — only
	// the lag budget prevents that degenerate consolidation in real
	// plans — so the test moves a partial amount.)
	var bad []engine.MoveSpec
	for _, ds := range w.Datasets {
		for src := 1; src < c.N(); src++ {
			half := c.MB(len(c.Data[src].Records(ds.Name))) / 2
			bad = append(bad, engine.MoveSpec{Dataset: ds.Name, Src: src, Dst: 0, MB: half})
		}
	}
	tBad, err := prof.plannedTime(c.Top, bad)
	if err != nil {
		t.Fatal(err)
	}
	if tBad <= tNone {
		t.Fatalf("pathological plan %v should profile worse than none %v", tBad, tNone)
	}
}
