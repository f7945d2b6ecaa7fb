package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// tpcds returns miniSetup and its TPC-DS workload.
func tpcds(t *testing.T) (Setup, *workload.Workload) {
	t.Helper()
	s := miniSetup()
	w, err := workload.Generate(workload.TPCDS, s.workloadConfig(workload.TPCDS, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// populated returns a cluster of s holding all of w.
func populated(t *testing.T, s Setup, w *workload.Workload) *engine.Cluster {
	t.Helper()
	c := emptyCluster(t, s)
	if err := w.Populate(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// emptyCluster returns a cluster of s holding no data.
func emptyCluster(t *testing.T, s Setup) *engine.Cluster {
	t.Helper()
	c, err := s.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDynamicConfigValidate(t *testing.T) {
	bad := []DynamicConfig{
		{InitialFraction: 0, BatchFraction: 0.1, ReplanEvery: 5, Queries: 3},
		{InitialFraction: 1.5, BatchFraction: 0.1, ReplanEvery: 5, Queries: 3},
		{InitialFraction: 0.5, BatchFraction: -1, ReplanEvery: 5, Queries: 3},
		{InitialFraction: 0.5, BatchFraction: 0.1, ReplanEvery: 0, Queries: 3},
		{InitialFraction: 0.5, BatchFraction: 0.1, ReplanEvery: 5, Queries: 0},
	}
	s, w := tpcds(t)
	for i, cfg := range bad {
		if _, err := RunDynamic(context.Background(), emptyCluster(t, s), w, placement.Bohr, cfg, placement.Options{}); err == nil {
			t.Fatalf("case %d should error", i)
		}
	}
}

func TestRunDynamicNeedsEmptyCluster(t *testing.T) {
	s, w := tpcds(t)
	if _, err := RunDynamic(context.Background(), populated(t, s, w), w, placement.Bohr, DefaultDynamicConfig(), placement.Options{}); err == nil {
		t.Fatal("populated cluster should error")
	}
}

func TestRunDynamic(t *testing.T) {
	s, w := tpcds(t)
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 5, Queries: 12}
	rep, err := RunDynamic(context.Background(), emptyCluster(t, s), w, placement.Bohr, dyn, placement.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QCTs) != 12 {
		t.Fatalf("QCTs = %d", len(rep.QCTs))
	}
	if rep.MeanQCT <= 0 {
		t.Fatalf("mean QCT = %v", rep.MeanQCT)
	}
	// One batch after every arrival but the last; replans after the 5th
	// and 10th batch, plus the initial plan.
	if rep.BatchesDelivered != 11 {
		t.Fatalf("batches = %d, want 11", rep.BatchesDelivered)
	}
	if rep.Replans != 3 {
		t.Fatalf("replans = %d, want 3", rep.Replans)
	}
}

// exhaustion is a scenario whose stream runs dry partway through: with
// InitialFraction 0.5 and BatchFraction 0.25 every site's rows are
// delivered after two batches (plus a truncation crumb).
var exhaustion = DynamicConfig{InitialFraction: 0.5, BatchFraction: 0.25, ReplanEvery: 3, Queries: 8}

// TestRunDynamicBatchCursorExhaustion pins the end of the data: once every
// cursor is exhausted no batch arrives, so BatchesDelivered stops and —
// the served rule, replans follow batches — nothing replans either; the
// remaining arrivals run over static data.
func TestRunDynamicBatchCursorExhaustion(t *testing.T) {
	s, w := tpcds(t)
	dyn := exhaustion
	empty := emptyCluster(t, s)
	rep, err := RunDynamic(context.Background(), empty, w, placement.Bohr, dyn, placement.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the cursor arithmetic: a batch follows an arrival (not the
	// last) when some dataset still has rows at some site.
	pos := make([][]int, len(w.Datasets))
	for d, ds := range w.Datasets {
		pos[d] = make([]int, len(ds.Rows))
		for i, site := range ds.Rows {
			pos[d][i] = int(float64(len(site)) * dyn.InitialFraction)
		}
	}
	want := 0
	for q := 0; q < dyn.Queries-1; q++ {
		delivered := false
		for d, ds := range w.Datasets {
			for i, site := range ds.Rows {
				if n := min(int(float64(len(site))*dyn.BatchFraction), len(site)-pos[d][i]); n > 0 {
					pos[d][i] += n
					delivered = true
				}
			}
		}
		if delivered {
			want++
		}
	}
	// The scenario must actually exhaust: arrivals without a batch exist.
	if want >= dyn.Queries-1 {
		t.Fatalf("scenario never exhausts (want = %d)", want)
	}
	if rep.BatchesDelivered != want {
		t.Fatalf("BatchesDelivered = %d, want %d (an exhausted stream delivers no batch)", rep.BatchesDelivered, want)
	}
	// Replans follow every ReplanEvery-th batch, and only batches, so the
	// arrivals after exhaustion do not replan: the initial plan plus one
	// per completed interval of delivered batches. A replan every
	// ReplanEvery arrivals would count more here.
	wantReplans := 1 + want/dyn.ReplanEvery
	if perArrival := 1 + (dyn.Queries-1)/dyn.ReplanEvery; wantReplans == perArrival {
		t.Fatalf("scenario replans %d times under either rule; it must tell them apart", wantReplans)
	}
	if rep.Replans != wantReplans {
		t.Fatalf("Replans = %d, want %d", rep.Replans, wantReplans)
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
// and requires byte-identical reports: arrivals over a fully-delivered,
// static dataset must not pick up nondeterminism from the exhausted
// delivery path.
func TestRunDynamicExhaustionDeterministic(t *testing.T) {
	run := func() []byte {
		t.Helper()
		s, w := tpcds(t)
		rep, err := RunDynamic(context.Background(), emptyCluster(t, s), w, placement.Bohr, exhaustion, placement.Options{Seed: 7})
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

// dynRun executes one dynamic run on a fresh empty cluster and returns the
// report's JSON and the run's counters.
func dynRun(t *testing.T, s Setup, w *workload.Workload, scheme placement.SchemeID, seed int64, dyn DynamicConfig) ([]byte, map[string]float64) {
	t.Helper()
	col := obs.NewCollector()
	rep, err := RunDynamic(context.Background(), emptyCluster(t, s), w, scheme, dyn,
		placement.Options{Seed: seed, Obs: col})
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
// report byte for byte and the same memo counters. Iridium-C's random
// mover draws from the forwarding rng, so it is held to the same bar.
func TestDynamicReportWidthIndependent(t *testing.T) {
	s, w := tpcds(t)
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 3, Queries: 9}
	for _, scheme := range []placement.SchemeID{placement.Bohr, placement.IridiumC} {
		t.Run(fmt.Sprint(scheme), func(t *testing.T) {
			prev := parallel.SetDefaultWidth(1)
			defer parallel.SetDefaultWidth(prev)
			w1, c1 := dynRun(t, s, w, scheme, 3, dyn)

			parallel.SetDefaultWidth(8)
			w8, c8 := dynRun(t, s, w, scheme, 3, dyn)

			if string(w1) != string(w8) {
				t.Fatalf("width changed the dynamic report:\n%s\nvs\n%s", w1, w8)
			}
			for _, name := range []string{placement.CounterDerivedHits, placement.CounterDerivedMisses} {
				if c1[name] != c8[name] || c1[name] == 0 {
					t.Errorf("%s = %v at width 1, %v at width 8; want equal and non-zero", name, c1[name], c8[name])
				}
			}
		})
	}
}

// TestDynamicReplansHitDerivedState: the planner's derived state needs no
// cap — it lives on the stores' contents and goes when they change — but
// must serve the lookups a replan repeats on contents it has seen: a dry
// run's reread of a site's column, and the columns the forwarding mover
// built since the last plan.
func TestDynamicReplansHitDerivedState(t *testing.T) {
	s, w := tpcds(t)
	// The stream exhausts after the third batch; each batch replans.
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.25, ReplanEvery: 1, Queries: 16}
	if _, counters := dynRun(t, s, w, placement.Bohr, 5, dyn); counters[placement.CounterDerivedHits] == 0 {
		t.Fatal("derived state never hit across 16 arrivals")
	}
}

// §8.6's finding: dynamic QCT is close to the normal (all data up front)
// setting because batch pre-processing happens in the lag. We check the
// weaker, shape-level property that the dynamic QCT with all data
// delivered stays within 2x of the static mean QCT.
func TestDynamicCloseToStatic(t *testing.T) {
	s, w := tpcds(t)

	// Static: everything up front.
	static, err := core.New(populated(t, s, w), w, placement.Bohr, placement.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := static.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	staticRep, err := static.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Deliver everything by the end: 0.25 + 15×0.05 = 1.0.
	dyn := DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 5, Queries: 16}
	dynRep, err := RunDynamic(context.Background(), emptyCluster(t, s), w, placement.Bohr, dyn, placement.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic queries run on partial data for most arrivals, so the mean
	// must not blow past the static QCT; the last arrivals (full data)
	// should be in the same ballpark.
	last := dynRep.QCTs[len(dynRep.QCTs)-1]
	if last > 2*staticRep.MeanQCT {
		t.Fatalf("dynamic full-data QCT %v too far above static %v", last, staticRep.MeanQCT)
	}
}
