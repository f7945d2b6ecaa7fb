package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/placement"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// restoredCopy is the cluster with every store's records installed anew:
// the same records in the same order at every site, no content — and so no
// layout, cube or cell column — shared with c.
func restoredCopy(c *engine.Cluster) *engine.Cluster {
	out := c.Clone()
	for i, sd := range c.Data {
		for _, name := range c.DatasetNames() {
			if recs := sd.Records(name); len(recs) > 0 {
				out.Data[i].Restore(name, slices.Clone(recs))
			}
		}
	}
	return out
}

// TestRunWarmLayoutsMatchCold is the layout memo's differential: for every
// scheme, workload kind and seed, the workload's queries run on a placed
// cluster whose stores carry the layouts of an earlier run, and on a copy
// of the same records that carries nothing, give byte-identical results —
// output, every round's metrics, QCT. Exact, not approximate: a memoized
// layout is the value the cold path computes.
func TestRunWarmLayoutsMatchCold(t *testing.T) {
	ctx := context.Background()
	top, err := wan.NewTopology([]string{"s0", "s1", "s2"}, []float64{4, 10, 20}, []float64{4, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range workload.Kinds() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.DefaultConfig(kind)
			cfg.Sites, cfg.Datasets, cfg.RowsPerSite, cfg.KeysPerPool, cfg.Seed = 3, 2, 400, 80, seed
			w, err := workload.Generate(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := engine.NewCluster(top, 2, 3, 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Populate(base); err != nil {
				t.Fatal(err)
			}
			for _, scheme := range placement.AllSchemes() {
				name := fmt.Sprintf("%s/seed=%d/%s", kind, seed, scheme)
				sys, err := New(base.Clone(), w, scheme, placement.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Prepare(ctx); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				run := func(c *engine.Cluster) ([]byte, map[string]float64) {
					col := obs.NewCollector()
					cfgs := make([]engine.JobConfig, len(w.Datasets))
					for i, ds := range w.Datasets {
						cfgs[i] = sys.Plan().JobConfigFor(ds.DominantQuery().Query)
						cfgs[i].Obs = col
					}
					results, err := c.RunConcurrent(ctx, cfgs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					b, err := json.Marshal(results)
					if err != nil {
						t.Fatal(err)
					}
					return b, col.MetricsSnapshot().Counters
				}
				run(sys.Cluster)
				warm, warmCounts := run(sys.Cluster)
				cold, coldCounts := run(restoredCopy(sys.Cluster))
				if string(warm) != string(cold) {
					t.Fatalf("%s: warm and cold results differ:\n%s\nvs\n%s", name, warm, cold)
				}
				lookups := warmCounts[engine.CounterLayoutHits]
				if lookups == 0 || warmCounts[engine.CounterLayoutMisses] != 0 ||
					coldCounts[engine.CounterLayoutHits] != 0 || coldCounts[engine.CounterLayoutMisses] != lookups {
					t.Fatalf("%s: warm run %v hits / %v misses, cold run %v / %v; want all hits, then as many misses",
						name, lookups, warmCounts[engine.CounterLayoutMisses],
						coldCounts[engine.CounterLayoutHits], coldCounts[engine.CounterLayoutMisses])
				}
			}
		}
	}
}

// TestIngestReplanCountsDerivedLookups: a live replan reports the planner's
// content-memo lookups to the system's collector, where /metrics of a
// running daemon reads them; before it only dynamic runs did.
func TestIngestReplanCountsDerivedLookups(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	col := obs.NewCollector()
	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 11, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.SetReplanEvery(1)
	ds := w.Datasets[0]
	if replanned, err := sys.IngestBatch(context.Background(), []Arrival{{Dataset: ds.Name, Site: 0, Rows: liveRows(ds, 3)}}); err != nil || !replanned {
		t.Fatalf("replanned = %v, err = %v", replanned, err)
	}
	counters := col.MetricsSnapshot().Counters
	if got, want := counters[placement.CounterDerivedHits], float64(sys.Plan().DerivedHits); got != want || want == 0 {
		t.Errorf("%s = %v, the replan's plan counted %v", placement.CounterDerivedHits, got, want)
	}
	if got, want := counters[placement.CounterDerivedMisses], float64(sys.Plan().DerivedMisses); got != want || want == 0 {
		t.Errorf("%s = %v, the replan's plan counted %v", placement.CounterDerivedMisses, got, want)
	}
}

// TestIngestReplanReusesUntouchedInputs: a replan after a batch that wrote
// one dataset rebuilds that dataset's planner inputs only — no other
// dataset's dominant map runs — and misses only the written site's column.
// The lag leaves no room to move, so the batch is all that changed.
func TestIngestReplanReusesUntouchedInputs(t *testing.T) {
	c, w := setup(t, workload.TPCDS)
	sys, err := New(c, w, placement.Bohr, placement.Options{Seed: 11, Lag: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if moves := sys.Plan().Moves; len(moves) > 0 {
		t.Fatalf("the plan moves %d times in a lag of 1 ns", len(moves))
	}
	mapped := make([]int, len(w.Datasets))
	for k, ds := range w.Datasets {
		for q := range ds.Queries {
			m := ds.Queries[q].Query.Map
			ds.Queries[q].Query.Map = func(r engine.KV, emit func(string, float64)) {
				mapped[k]++
				m(r, emit)
			}
		}
	}
	sys.SetReplanEvery(1)
	ds := w.Datasets[0]
	if replanned, err := sys.IngestBatch(context.Background(), []Arrival{{Dataset: ds.Name, Site: 2, Rows: liveRows(ds, 3)}}); err != nil || !replanned {
		t.Fatalf("replanned = %v, err = %v", replanned, err)
	}
	for k, n := range mapped {
		if rebuilt := n > 0; rebuilt != (k == 0) {
			t.Errorf("%s: inputs rebuilt = %v after a batch to %s", w.Datasets[k].Name, rebuilt, ds.Name)
		}
	}
	if misses := sys.Plan().DerivedMisses; misses != 1 {
		t.Errorf("the replan missed %d columns after a batch to one site", misses)
	}
}
