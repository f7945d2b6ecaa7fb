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

// selectJob compiles a statement over dataset d of w, whose name fills the
// statement's %s.
func selectJob(tb testing.TB, w *workload.Workload, d int, stmt string) engine.JobConfig {
	tb.Helper()
	ds := w.Datasets[d]
	plan, err := sql.CompileString(fmt.Sprintf(stmt, ds.Name), ds.Schema)
	if err != nil {
		tb.Fatal(err)
	}
	return engine.JobConfig{Query: plan.Query}
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
			if len(solo.Output()) == 0 {
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

// TestRunConcurrentSharesStageBuffers pins what the shared buffers are for.
// Within a call, a fig6-shaped batch of four jobs allocates at most 0.6 of
// what its jobs allocate run one by one, each growing its own combiners and
// key index from nothing (reads 0.41; 1.0 before a batch shared them).
// Across calls, the combiners and the key index come back from their pools:
// the same batch allocates at most 0.8 of what it does on empty pools
// (reads 0.51, 0.59 before the key index was pooled, and about 0.65 under
// -race, where a pool drops a quarter of what it is given). So does a
// batch of four SQL Selects, whose groups, key index and grouper tables are
// all pooled: at most 0.8 (reads 0.53, about 0.7 under -race; 1.00 when a
// Select built them all anew). Two collections empty a sync.Pool.
func TestRunConcurrentSharesStageBuffers(t *testing.T) {
	c, w, cfgs := fig6Batch(t, workload.TPCDS)
	ctx := context.Background()
	run := func(cfgs ...engine.JobConfig) {
		if _, err := c.RunConcurrent(ctx, cfgs); err != nil {
			t.Fatal(err)
		}
	}
	cold := func(cfgs ...engine.JobConfig) func() {
		return func() { runtime.GC(); runtime.GC(); run(cfgs...) }
	}
	run(cfgs...) // builds the layouts every side then finds
	const runs = 5
	batch := allocBytes(runs, cold(cfgs...))
	var alone float64
	for _, cfg := range cfgs {
		alone += allocBytes(runs, cold(cfg))
	}
	warm := allocBytes(runs, func() { run(cfgs...) })
	t.Logf("%d-job batch: %.0f kB, its jobs alone: %.0f kB (%.2f); on a warm pool: %.0f kB (%.2f)",
		len(cfgs), batch/1e3, alone/1e3, batch/alone, warm/1e3, warm/batch)
	if ratio := batch / alone; ratio > 0.6 {
		t.Fatalf("a %d-job batch allocates %.2f of its jobs run alone, want at most 0.6", len(cfgs), ratio)
	}
	if ratio := warm / batch; ratio > 0.8 {
		t.Fatalf("a %d-job batch on a warm pool allocates %.2f of one on an empty pool, want at most 0.8", len(cfgs), ratio)
	}

	dims := w.Datasets[0].Schema.Dims()
	var sels []engine.JobConfig
	for d := range w.Datasets {
		sels = append(sels, selectJob(t, w, d, fmt.Sprintf("SELECT %s, %s, SUM(measure) FROM %%s GROUP BY %s, %s", dims[0], dims[1], dims[0], dims[1])))
	}
	run(sels...) // builds the key columns both sides then find
	selCold := allocBytes(runs, cold(sels...))
	selWarm := allocBytes(runs, func() { run(sels...) })
	t.Logf("%d-Select batch: %.0f kB on empty pools, %.0f kB on warm ones (%.2f)",
		len(sels), selCold/1e3, selWarm/1e3, selWarm/selCold)
	if ratio := selWarm / selCold; ratio > 0.8 {
		t.Fatalf("a %d-Select batch on warm pools allocates %.2f of one on empty pools, want at most 0.8", len(sels), ratio)
	}
}

// TestPooledCombinersCarryNothing runs a batch right after a different
// batch, so the pools hold that batch's combiners and key index, and holds
// it to the same batch on fresh buffers (the pools emptied by two
// collections): equal bit for bit in every number it reports and every
// metric it records, at pool width 1 and 4. Both batches mix MapFn jobs
// with SQL Selects, whose groups go in the same pooled combiners. After
// either run, the pooled combiners and key indexes hold no key.
func TestPooledCombinersCarryNothing(t *testing.T) {
	c, w, cfgs := fig6Batch(t, workload.Facebook)
	ds := w.Datasets
	dims := ds[0].Schema.Dims()
	cfgs = append(cfgs, selectJob(t, w, 0, fmt.Sprintf("SELECT %s, COUNT(*) FROM %%s GROUP BY %s", dims[1], dims[1])))
	other := []engine.JobConfig{
		{Query: engine.UDFQuery("udf x2", ds[1].Name, 2)},
		selectJob(t, w, 0, fmt.Sprintf("SELECT %s, %s, MAX(measure) FROM %%s GROUP BY %s, %s", dims[0], dims[1], dims[0], dims[1])),
		{Query: ds[2].Queries[1].Query},
		selectJob(t, w, 3, "SELECT SUM(measure) FROM %s"),
		{Query: engine.ScanQuery("scan", ds[3].Name)},
	}
	collected := func() []engine.JobConfig {
		out := slices.Clone(cfgs)
		for k := range out {
			out[k].Obs = obs.NewCollector()
		}
		return out
	}
	run := func(cfgs []engine.JobConfig) []*engine.RunResult {
		res, err := c.RunConcurrent(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if keys := engine.PooledCombinerKeys(c.N()); keys != 0 {
			t.Fatalf("the pooled combiners hold %d keys after a run", keys)
		}
		if keys := engine.PooledKeyIndexKeys(4); keys != 0 {
			t.Fatalf("the pooled key indexes hold %d keys after a run", keys)
		}
		return res
	}
	run(cfgs) // builds the layouts both sides then find
	defer parallel.SetDefaultWidth(parallel.DefaultWidth())
	for _, width := range []int{1, 4} {
		parallel.SetDefaultWidth(width)
		runtime.GC()
		runtime.GC()
		freshCfgs := collected()
		fresh := run(freshCfgs)
		run(other)
		pooledCfgs := collected()
		pooled := run(pooledCfgs)
		for k := range cfgs {
			name := fmt.Sprintf("width %d: %s", width, cfgs[k].Query.Name)
			if len(fresh[k].Output()) == 0 {
				t.Fatalf("%s: no output to compare", name)
			}
			if g, want := runBits(pooled[k]), runBits(fresh[k]); !slices.Equal(g, want) {
				t.Fatalf("%s: pooled combiners differ from fresh ones:\n pooled %v\n  fresh %v", name, g, want)
			}
			if p, f := pooledCfgs[k].Obs.MetricsSnapshot(), freshCfgs[k].Obs.MetricsSnapshot(); !reflect.DeepEqual(p, f) {
				t.Fatalf("%s: metrics on pooled combiners %+v\nfresh %+v", name, p, f)
			}
		}
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
