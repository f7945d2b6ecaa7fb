package core

import (
	"context"
	"encoding/json"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// TestRunDynamicBatchCursorExhaustion pins RunDynamic's end-of-data
// behavior: once a dataset's batch cursors are exhausted, deliver()
// reports zero rows and BatchesDelivered must NOT advance — an empty
// delivery is not a batch. With InitialFraction 0.5 and BatchFraction
// 0.25, every dataset exhausts after exactly two post-query deliveries;
// the remaining arrivals (including post-exhaustion replans) run over
// static data.
func TestRunDynamicBatchCursorExhaustion(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	empty, _ := engine.NewCluster(c.Top, 1, 4, 100)
	dyn := DynamicConfig{InitialFraction: 0.5, BatchFraction: 0.25, ReplanEvery: 3, Queries: 8}
	rep, err := RunDynamic(context.Background(), empty, w, placement.Bohr, dyn, placement.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 8 arrivals attempt a delivery each, but cursors exhaust after
	// roughly two batches (plus a truncation crumb): mirror the cursor
	// arithmetic to compute how many deliveries actually find rows.
	want := 0
	for _, ds := range w.Datasets {
		pos := make([]int, len(ds.Rows))
		for i, site := range ds.Rows {
			pos[i] = int(float64(len(site)) * dyn.InitialFraction)
		}
		for q := 0; q < dyn.Queries; q++ {
			delivered := false
			for i, site := range ds.Rows {
				n := int(float64(len(site)) * dyn.BatchFraction)
				if pos[i]+n > len(site) {
					n = len(site) - pos[i]
				}
				if n <= 0 {
					continue
				}
				pos[i] += n
				delivered = true
			}
			if delivered {
				want++
			}
		}
	}
	// The scenario must actually exhaust: empty rounds exist.
	if want >= dyn.Queries*len(w.Datasets) {
		t.Fatalf("scenario never exhausts (want = %d)", want)
	}
	if rep.BatchesDelivered != want {
		t.Fatalf("BatchesDelivered = %d, want %d (exhausted cursors must not count)", rep.BatchesDelivered, want)
	}
	// Replans at q3 and q6 (the q6 one after full exhaustion) + initial.
	if rep.Replans != 3 {
		t.Fatalf("Replans = %d, want 3", rep.Replans)
	}
	if len(rep.QCTs) != dyn.Queries {
		t.Fatalf("QCTs = %d, want %d (exhaustion must not stop query arrivals)", len(rep.QCTs), dyn.Queries)
	}
	// Every cursor drained completely: the cluster holds the full workload.
	for _, ds := range w.Datasets {
		total := 0
		for i := 0; i < empty.N(); i++ {
			total += len(empty.Data[i].Records(ds.Name))
		}
		wantRows := 0
		for _, site := range ds.Rows {
			wantRows += len(site)
		}
		if total != wantRows {
			t.Fatalf("dataset %q: cluster holds %d rows, workload has %d", ds.Name, total, wantRows)
		}
	}
}

// TestRunDynamicExhaustionDeterministic replays the exhaustion scenario
// and requires byte-identical reports: replans over a fully-delivered,
// static dataset must not pick up nondeterminism from the exhausted
// delivery path.
func TestRunDynamicExhaustionDeterministic(t *testing.T) {
	run := func() []byte {
		t.Helper()
		c, w := setup(t, workload.TPCDS)
		empty, _ := engine.NewCluster(c.Top, 1, 4, 100)
		dyn := DynamicConfig{InitialFraction: 0.5, BatchFraction: 0.25, ReplanEvery: 3, Queries: 8}
		rep, err := RunDynamic(context.Background(), empty, w, placement.Bohr, dyn, placement.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("reports differ across identical runs:\n%s\n%s", a, b)
	}
}
