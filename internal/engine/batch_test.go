package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/obs"
	"bohr/internal/parallel"
	"bohr/internal/sql"
	"bohr/internal/workload"
)

// fig6Batch is one scheme op's engine run in the fig6-batch benchmark: the
// bench's deployment (10 sites, 4 datasets of 1,000 rows per site) holding a
// generated workload of the kind, and every dataset's dominant query.
func fig6Batch(tb testing.TB, kind workload.Kind) (*engine.Cluster, *workload.Workload, []engine.JobConfig) {
	tb.Helper()
	s := experiments.DefaultSetup()
	s.Datasets, s.RowsPerSite, s.KeysPerPool, s.Runs = 4, 1000, 250, 1
	c, w, err := s.Populated(kind, false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfgs := make([]engine.JobConfig, len(w.Datasets))
	for i, ds := range w.Datasets {
		cfgs[i] = engine.JobConfig{Query: ds.DominantQuery().Query}
	}
	return c, w, cfgs
}

// TestRunConcurrentJobsMatchSolo holds the buffers a batch shares — one
// combiner per site and one key index, job after job and round after round
// — to the batch's contract: what a job computes is its own. Each job of a
// mixed batch (projections over three datasets under four combine ops, a
// two-round UDF, a SQL Select and a cube-input scan) must equal the same job
// run alone, bit for bit, in its output, per-site and per-round volumes, map
// and reduce times and every metric it records, at pool width 1 and 4. Only
// the shared shuffle, and so the QCT, may differ. Folding a job's partials
// after the next job has mapped reads a combiner that scan overwrote, and
// fails it.
func TestRunConcurrentJobsMatchSolo(t *testing.T) {
	c, w, _ := fig6Batch(t, workload.TPCDS)
	ds := w.Datasets
	query := func(d, spec int, op engine.CombineOp) engine.Query {
		q := ds[d].Queries[spec].Query
		q.Combine = op
		return q
	}
	sel, err := sql.CompileString(fmt.Sprintf("SELECT store, MAX(measure) FROM %s WHERE region != 'EMEA' GROUP BY store", ds[0].Name), ds[0].Schema)
	if err != nil {
		t.Fatal(err)
	}
	cube := engine.JobConfig{Query: query(1, 0, engine.OpSum), CubeInput: true}
	cube.Query.Name += " over the cube"
	base := []engine.JobConfig{
		{Query: engine.UDFQuery("udf x2", ds[3].Name, 2)},
		{Query: query(0, 0, engine.OpSum)},
		{Query: sel.Query},
		{Query: query(1, 1, engine.OpCount)},
		cube,
		{Query: query(2, 2, engine.OpMin)},
		{Query: query(0, 1, engine.OpMax)},
	}
	// Layouts and key columns are built here, so solo and batched runs both
	// find them (the lookup counters are among the compared metrics).
	if _, err := c.RunConcurrent(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	collected := func() []engine.JobConfig {
		cfgs := append([]engine.JobConfig(nil), base...)
		for k := range cfgs {
			cfgs[k].Obs = obs.NewCollector()
		}
		return cfgs
	}
	defer parallel.SetDefaultWidth(parallel.DefaultWidth())
	for _, width := range []int{1, 4} {
		parallel.SetDefaultWidth(width)
		batch := collected()
		got, err := c.RunConcurrent(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for k, cfg := range collected() {
			solo, err := c.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("width %d: %s", width, cfg.Query.Name)
			if len(solo.Output) == 0 {
				t.Fatalf("%s: no output to compare", name)
			}
			g, want := jobBits(got[k]), jobBits(solo)
			for i := range max(len(g), len(want)) {
				if i >= len(g) || i >= len(want) || g[i] != want[i] {
					t.Fatalf("%s: %d fields batched, %d alone; first difference at %d:\n batched %v\n   alone %v",
						name, len(g), len(want), i, g[min(i, len(g)-1)], want[min(i, len(want)-1)])
				}
			}
			if b, s := batch[k].Obs.MetricsSnapshot(), cfg.Obs.MetricsSnapshot(); !reflect.DeepEqual(b, s) {
				t.Fatalf("%s: metrics batched %+v\nalone %+v", name, b, s)
			}
		}
	}
}

// jobBits is runBits without what a batch shares: the shuffle time, and the
// QCT that includes it.
func jobBits(r *engine.RunResult) []string {
	return slices.DeleteFunc(runBits(r), func(line string) bool {
		return strings.HasPrefix(line, "QCT=") || strings.Contains(line, ".ShuffleTime=")
	})
}

// allocBytes is the mean heap bytes one call of fn allocates, over runs.
func allocBytes(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRunConcurrentSharesStageBuffers pins what the shared buffers are for:
// a fig6-shaped batch of four jobs allocates at most 0.6 of what its jobs
// allocate run one by one, each growing its own combiners and key index
// from nothing (the batch read 1.0 of it before they were shared).
func TestRunConcurrentSharesStageBuffers(t *testing.T) {
	c, _, cfgs := fig6Batch(t, workload.TPCDS)
	ctx := context.Background()
	run := func(cfgs ...engine.JobConfig) {
		if _, err := c.RunConcurrent(ctx, cfgs); err != nil {
			t.Fatal(err)
		}
	}
	run(cfgs...) // builds the layouts both sides then find
	const runs = 5
	batch := allocBytes(runs, func() { run(cfgs...) })
	var alone float64
	for _, cfg := range cfgs {
		alone += allocBytes(runs, func() { run(cfg) })
	}
	ratio := batch / alone
	t.Logf("%d-job batch: %.0f kB, its jobs alone: %.0f kB (%.2f)", len(cfgs), batch/1e3, alone/1e3, ratio)
	if ratio > 0.6 {
		t.Fatalf("a %d-job batch allocates %.2f of its jobs run alone, want at most 0.6", len(cfgs), ratio)
	}
}

// BenchmarkRunConcurrentFig6 is the map/combine → shuffle → reduce layer of
// a fig6-batch scheme op on its own: the four datasets' dominant queries
// run as one batch over ten sites, per workload kind, layouts built.
func BenchmarkRunConcurrentFig6(b *testing.B) {
	for _, kind := range workload.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			c, _, cfgs := fig6Batch(b, kind)
			ctx := context.Background()
			if _, err := c.RunConcurrent(ctx, cfgs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := c.RunConcurrent(ctx, cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
