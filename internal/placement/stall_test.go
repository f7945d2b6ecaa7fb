package placement

import (
	"math"
	"testing"

	"bohr/internal/obs"
	"bohr/internal/workload"
)

// TestPlanSchemeStalledLPFallsBack pins the planner's degraded mode: with
// a pivot cap of 1 every LP stalls, and instead of failing the round the
// joint planner must fall back to the no-move plan, the task LP to
// uplink-proportional fractions, and both must count lp.stalled. Before
// the Stalled status existed a capped solve reported itself converged and
// the planner shipped moves from an unproven basis.
func TestPlanSchemeStalledLPFallsBack(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	col := obs.NewCollector()
	plan, err := PlanScheme(BohrJoint, c, w, Options{Seed: 1, lpMaxPivots: 1, Obs: col})
	if err != nil {
		t.Fatalf("stalled LP must degrade, not fail: %v", err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("stalled joint LP produced %d moves, want none", len(plan.Moves))
	}
	if len(plan.TaskFrac) == 0 {
		t.Fatal("plan has no task fractions")
	}
	var sum float64
	for i, r := range plan.TaskFrac {
		if r < 0 {
			t.Errorf("task fraction %d = %v, want >= 0", i, r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("task fractions sum to %v, want 1", sum)
	}
	snap := col.MetricsSnapshot()
	if snap.Counters["lp.stalled"] < 2 {
		t.Errorf("lp.stalled = %v, want >= 2 (joint LP and task LP)", snap.Counters["lp.stalled"])
	}

	// An uncapped plan of the same round must not count any stalls.
	col2 := obs.NewCollector()
	if _, err := PlanScheme(BohrJoint, c, w, Options{Seed: 1, Obs: col2}); err != nil {
		t.Fatal(err)
	}
	if n := col2.MetricsSnapshot().Counters["lp.stalled"]; n != 0 {
		t.Errorf("uncapped plan counted lp.stalled = %v, want 0", n)
	}
}
