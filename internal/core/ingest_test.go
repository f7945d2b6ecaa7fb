package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bohr/internal/obs"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

func preparedSystem(t *testing.T) (*System, *workload.Dataset) {
	t.Helper()
	c, w := setup(t, workload.TPCDS)
	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys, w.Datasets[0]
}

func liveRows(ds *workload.Dataset, n int) []olap.Row {
	rows := make([]olap.Row, n)
	for i := range rows {
		coords := make([]string, ds.Schema.NumDims())
		for j := range coords {
			coords[j] = fmt.Sprintf("live%d-%d", i%3, j)
		}
		rows[i] = olap.Row{Coords: coords, Measure: float64(i + 1)}
	}
	return rows
}

func totalRecords(s *System, dataset string) int {
	n := 0
	for i := 0; i < s.Cluster.N(); i++ {
		n += len(s.Cluster.Data[i].Records(dataset))
	}
	return n
}

func TestIngestBatchAppliesRows(t *testing.T) {
	sys, ds := preparedSystem(t)
	before := totalRecords(sys, ds.Name)
	rows := liveRows(ds, 10)
	replanned, err := sys.IngestBatch(context.Background(), []Arrival{
		{Dataset: ds.Name, Site: 0, Rows: rows[:6]},
		{Dataset: ds.Name, Site: 1, Rows: rows[6:]},
	})
	if err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	if replanned {
		t.Fatal("replanned with replanEvery unset")
	}
	// Movement may relocate the new rows between sites, but the total is
	// conserved: nothing lost, nothing duplicated.
	if got := totalRecords(sys, ds.Name); got != before+10 {
		t.Fatalf("cluster holds %d records, want %d", got, before+10)
	}
	if sys.IngestBatches() != 1 {
		t.Fatalf("IngestBatches = %d, want 1", sys.IngestBatches())
	}
}

// TestIngestMoveSelectsFromWholeSite pins the §8.6 step-2 reading
// moveBatchByShares documents: the arrived batch sets the forwarded
// volume, the mover picks from everything the site holds. The live rows'
// cells exist nowhere else, so Bohr's mover ranks them last, and resident
// records leave while just-arrived ones stay.
func TestIngestMoveSelectsFromWholeSite(t *testing.T) {
	sys, ds := preparedSystem(t)
	src := -1
	for s, row := range sys.shares[ds.Name] {
		for _, frac := range row {
			if frac > 0 && len(sys.Cluster.Data[s].Records(ds.Name)) > 0 {
				src = s
			}
		}
	}
	if src < 0 {
		t.Fatal("the plan moves nothing out of a non-empty site; the test needs a forwarding share")
	}
	resident := map[string]int{}
	for _, r := range sys.Cluster.Data[src].Records(ds.Name) {
		resident[r.Key]++
	}
	rows := liveRows(ds, 40)
	if _, err := sys.IngestBatch(context.Background(), []Arrival{{Dataset: ds.Name, Site: src, Rows: rows}}); err != nil {
		t.Fatal(err)
	}
	arrivedKept := 0
	for _, r := range sys.Cluster.Data[src].Records(ds.Name) {
		if strings.HasPrefix(r.Key, "live") {
			arrivedKept++
		} else {
			resident[r.Key]--
		}
	}
	residentLeft := 0
	for _, n := range resident {
		residentLeft += n
	}
	if residentLeft == 0 || arrivedKept == 0 {
		t.Fatalf("%d resident records left site %d and %d of %d arrived rows stayed; want residents to leave before arrivals",
			residentLeft, src, arrivedKept, len(rows))
	}
}

// TestIngestBatchCountsForwarded pins what the live daemon reports about
// the forward step: core.ingest.forwarded is exactly the number of records
// that changed site — batch by batch, one arrival each, so every record
// that left the arrival site was forwarded from it — and each arrival's
// forward runs under an ingest.forward span inside ingest.apply.
func TestIngestBatchCountsForwarded(t *testing.T) {
	sys, ds := preparedSystem(t)
	col := obs.NewCollector()
	sys.Obs = col
	sizes := func() []int {
		out := make([]int, sys.Cluster.N())
		for i := range out {
			out[i] = len(sys.Cluster.Data[i].Records(ds.Name))
		}
		return out
	}
	moved, arrivals := 0, 0
	for round := 0; round < 3; round++ {
		for site := 0; site < sys.Cluster.N(); site++ {
			before := sizes()
			rows := liveRows(ds, 30+7*site+round)
			if _, err := sys.IngestBatch(context.Background(), []Arrival{{Dataset: ds.Name, Site: site, Rows: rows}}); err != nil {
				t.Fatal(err)
			}
			arrivals++
			after, gained := sizes(), 0
			for s := range after {
				if s != site {
					if after[s] < before[s] {
						t.Fatalf("site %d lost records to an arrival at site %d", s, site)
					}
					gained += after[s] - before[s]
				}
			}
			if left := before[site] + len(rows) - after[site]; left != gained {
				t.Fatalf("arrival at site %d: %d records left it, %d reached other sites", site, left, gained)
			}
			moved += gained
			if got := col.MetricsSnapshot().Counters["core.ingest.forwarded"]; got != float64(moved) {
				t.Fatalf("after an arrival at site %d: core.ingest.forwarded = %v, %d records changed site", site, got, moved)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no arrival was forwarded; the test needs a forwarding share")
	}
	forwards := 0
	for _, apply := range col.Trace().Children {
		if apply.Name != "ingest.apply" {
			t.Fatalf("unexpected top-level span %q", apply.Name)
		}
		for _, ch := range apply.Children {
			if ch.Name == "ingest.forward" {
				forwards++
			}
		}
	}
	if forwards != arrivals {
		t.Fatalf("%d ingest.forward spans under ingest.apply for %d arrivals", forwards, arrivals)
	}
}

func TestIngestBatchValidatesAllOrNothing(t *testing.T) {
	sys, ds := preparedSystem(t)
	before := totalRecords(sys, ds.Name)
	good := Arrival{Dataset: ds.Name, Site: 0, Rows: liveRows(ds, 2)}
	for name, bad := range map[string]Arrival{
		"unknown dataset": {Dataset: "nope", Site: 0, Rows: liveRows(ds, 1)},
		"site too high":   {Dataset: ds.Name, Site: sys.Cluster.N(), Rows: liveRows(ds, 1)},
		"negative site":   {Dataset: ds.Name, Site: -1, Rows: liveRows(ds, 1)},
		"empty rows":      {Dataset: ds.Name, Site: 0},
		"wrong dims": {Dataset: ds.Name, Site: 0,
			Rows: []olap.Row{{Coords: []string{"only-one"}, Measure: 1}}},
		"reserved separator": {Dataset: ds.Name, Site: 0,
			Rows: []olap.Row{{Coords: append([]string{workload.JoinKey([]string{"a", "b"})},
				liveRows(ds, 1)[0].Coords[1:]...), Measure: 1}}},
	} {
		_, err := sys.IngestBatch(context.Background(), []Arrival{good, bad})
		if !errors.Is(err, ErrBadArrival) {
			t.Fatalf("%s: err = %v, want ErrBadArrival", name, err)
		}
		if !strings.Contains(err.Error(), "core:") && err == nil {
			t.Fatalf("%s: unhelpful error %v", name, err)
		}
	}
	// All-or-nothing: the good arrival sharing a batch with a bad one must
	// not have been applied.
	if got := totalRecords(sys, ds.Name); got != before {
		t.Fatalf("rejected batches leaked %d records", got-before)
	}
	if sys.IngestBatches() != 0 {
		t.Fatalf("IngestBatches = %d after only rejected batches", sys.IngestBatches())
	}
}

func TestIngestBatchReplanCadence(t *testing.T) {
	sys, ds := preparedSystem(t)
	sys.SetReplanEvery(2)
	for i := 0; i < 5; i++ {
		replanned, err := sys.IngestBatch(context.Background(), []Arrival{
			{Dataset: ds.Name, Site: i % sys.Cluster.N(), Rows: liveRows(ds, 3)},
		})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if want := (i+1)%2 == 0; replanned != want {
			t.Fatalf("batch %d: replanned = %v, want %v", i, replanned, want)
		}
	}
	if sys.IngestReplans() != 2 {
		t.Fatalf("IngestReplans = %d, want 2 (after batches 2 and 4)", sys.IngestReplans())
	}
	if sys.Plan() == nil {
		t.Fatal("replanning lost the plan")
	}
	// Queries still run under the refreshed plan.
	if _, err := sys.RunAll(context.Background()); err != nil {
		t.Fatalf("RunAll after live replans: %v", err)
	}
}

func TestIngestBatchRequiresPrepare(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IngestBatch(context.Background(), []Arrival{
		{Dataset: w.Datasets[0].Name, Site: 0, Rows: liveRows(w.Datasets[0], 1)},
	}); err == nil {
		t.Fatal("ingest before Prepare succeeded")
	}
}

// lateCancel is a context cancelled after its entry check: Err reports
// nil once, then context.Canceled.
type lateCancel struct {
	context.Context
	calls int
}

func (c *lateCancel) Err() error {
	if c.calls++; c.calls > 1 {
		return context.Canceled
	}
	return nil
}

// TestIngestBatchCommitsOrChangesNothing pins the write path's contract:
// a replan that fails after the batch landed keeps the plan, is counted,
// and the batch succeeds, so a caller that redelivers on error cannot
// apply it twice.
func TestIngestBatchCommitsOrChangesNothing(t *testing.T) {
	sys, ds := preparedSystem(t)
	col := obs.NewCollector()
	sys.Obs = col
	sys.SetReplanEvery(1)
	plan, before := sys.Plan(), totalRecords(sys, ds.Name)
	batch := []Arrival{{Dataset: ds.Name, Site: 0, Rows: liveRows(ds, 10)}}
	replanned, err := sys.IngestBatch(&lateCancel{Context: context.Background()}, batch)
	if grown := totalRecords(sys, ds.Name) - before; err != nil || replanned || grown != 10 {
		t.Fatalf("IngestBatch under a late cancel = %v, %v with %d rows applied; want no replan, no error, 10 rows", replanned, err, grown)
	}
	if sys.Plan() != plan || sys.IngestReplans() != 0 || sys.IngestBatches() != 1 {
		t.Fatalf("plan kept %v, %d replans, %d batches; want the plan kept, 0, 1", sys.Plan() == plan, sys.IngestReplans(), sys.IngestBatches())
	}
	if got := col.MetricsSnapshot().Counters["core.ingest.replan_errors"]; got != 1 {
		t.Fatalf("core.ingest.replan_errors = %v, want 1", got)
	}
	// The cadence goes on: the next batch replans.
	if replanned, err := sys.IngestBatch(context.Background(), batch); err != nil || !replanned {
		t.Fatalf("next batch = %v, %v; want a replan", replanned, err)
	}
	if got := totalRecords(sys, ds.Name); got != before+20 {
		t.Fatalf("cluster holds %d records, want %d", got, before+20)
	}
}
