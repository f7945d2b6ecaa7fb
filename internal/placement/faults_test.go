package placement

import (
	"testing"

	"bohr/internal/faults"
	"bohr/internal/workload"
)

func TestPlanSchemeRoutesAroundDeadSite(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	// Site 2 (a fast site that normally attracts tasks) is crashed
	// across the whole planning and query window.
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindSiteCrash, Site: 2, Start: 0, End: 3600},
	}}
	plan, err := PlanScheme(Bohr, c.Clone(), w, Options{Seed: 1, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TaskFrac[2] > 0.01 {
		t.Errorf("dead site kept task fraction %v, want ≈0", plan.TaskFrac[2])
	}
	var alive float64
	for i, f := range plan.TaskFrac {
		if i != 2 {
			alive += f
		}
	}
	if alive < 0.98 {
		t.Errorf("alive sites hold %v of the tasks, want ≈1", alive)
	}
	// No planned move may target the dead site.
	for _, mv := range plan.Moves {
		if mv.Dst == 2 {
			t.Errorf("planner moved %v MB of %s INTO the dead site", mv.MB, mv.Dataset)
		}
	}
	// The clean planner, by contrast, does use site 2.
	clean, err := PlanScheme(Bohr, c.Clone(), w, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean.TaskFrac[2] <= 0.01 {
		t.Skip("clean plan already avoids site 2; degraded comparison is vacuous")
	}
}

// TestWithFaultsOption: a schedule set on Options reaches the plan, whose
// Execute drains its moves through the fault-scaled links.
func TestWithFaultsOption(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindSiteCrash, Site: 0, Start: 0, End: 1},
	}}
	plan, err := PlanScheme(Iridium, c, w, Options{Seed: 1, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if plan.faults != sched {
		t.Fatal("the plan does not carry the schedule Options.Faults held")
	}
}
