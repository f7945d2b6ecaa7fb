package core

import (
	"context"
	"encoding/json"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// dynRun executes one dynamic run on a fresh empty cluster and returns the
// report's JSON and the run's counters.
func dynRun(t *testing.T, w *workload.Workload, c *engine.Cluster, seed int64, dyn DynamicConfig) ([]byte, map[string]float64) {
	t.Helper()
	empty, err := engine.NewCluster(c.Top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	rep, err := RunDynamic(context.Background(), empty, w, placement.Bohr, dyn,
		WithPlacement(placement.Options{Seed: seed, Obs: col}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b, col.MetricsSnapshot().Counters
}

// TestDynamicReportWidthIndependent is the go-test sibling of the
// determinism gate's dynamic leg: which goroutine builds a piece of
// derived state first never shows, so width 1 and width 8 give the same
// report byte for byte and the same memo counters.
func TestDynamicReportWidthIndependent(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 3, Queries: 9}

	prev := parallel.SetDefaultWidth(1)
	defer parallel.SetDefaultWidth(prev)
	w1, c1 := dynRun(t, w, c, 3, dyn)

	parallel.SetDefaultWidth(8)
	w8, c8 := dynRun(t, w, c, 3, dyn)

	if string(w1) != string(w8) {
		t.Fatalf("width changed the dynamic report:\n%s\nvs\n%s", w1, w8)
	}
	for _, name := range []string{placement.CounterDerivedHits, placement.CounterDerivedMisses} {
		if c1[name] != c8[name] || c1[name] == 0 {
			t.Errorf("%s = %v at width 1, %v at width 8; want equal and non-zero", name, c1[name], c8[name])
		}
	}
}

// TestDynamicReplansHitDerivedState: the planner's derived state needs no
// cap — it lives on the stores' contents and goes when they change — but
// must serve the replans that see unchanged sites.
func TestDynamicReplansHitDerivedState(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	// The stream exhausts after the third batch, so the later replans
	// (q8, q12) see sites unchanged since the previous plan's moves — the
	// recurring fast path the content memo exists for.
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.25, ReplanEvery: 4, Queries: 16}
	if _, counters := dynRun(t, w, c, 5, dyn); counters[placement.CounterDerivedHits] == 0 {
		t.Fatal("derived state never hit across 16 arrivals")
	}
}
