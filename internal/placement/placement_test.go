package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"bohr/internal/engine"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// testSetup builds a 4-site cluster with one small generated workload.
func testSetup(t *testing.T, kind workload.Kind, locality bool) (*engine.Cluster, *workload.Workload) {
	t.Helper()
	return seededSetup(t, kind, locality, workload.DefaultConfig(kind).Seed)
}

// seededSetup is testSetup with the workload generated from seed.
func seededSetup(t *testing.T, kind workload.Kind, locality bool, seed int64) (*engine.Cluster, *workload.Workload) {
	t.Helper()
	cfg := workload.DefaultConfig(kind)
	cfg.Seed = seed
	cfg.Sites = 4
	cfg.Datasets = 3
	cfg.RowsPerSite = 800
	cfg.KeysPerPool = 120
	cfg.LocalityAware = locality
	w, err := workload.Generate(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top, err := wan.NewTopology(
		[]string{"s0", "s1", "s2", "s3"},
		[]float64{4, 10, 20, 20}, []float64{4, 10, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCluster(top, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Populate(c); err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestSchemeStrings(t *testing.T) {
	if len(AllSchemes()) != 6 {
		t.Fatal("six schemes expected")
	}
	for _, s := range AllSchemes() {
		if s.String() == "unknown" {
			t.Fatalf("scheme %d unnamed", s)
		}
	}
	if SchemeID(99).String() != "unknown" {
		t.Fatal("bad scheme should be unknown")
	}
}

func TestSchemeTraits(t *testing.T) {
	if Iridium.usesCubes() || !IridiumC.usesCubes() {
		t.Fatal("cube traits wrong")
	}
	if Iridium.usesSimilarity() || IridiumC.usesSimilarity() {
		t.Fatal("Iridium variants must be similarity-agnostic")
	}
	for _, s := range []SchemeID{BohrSim, BohrJoint, BohrRDD, Bohr} {
		if !s.usesSimilarity() {
			t.Fatalf("%v should use similarity", s)
		}
	}
	if BohrSim.usesJointLP() || !BohrJoint.usesJointLP() || !Bohr.usesJointLP() {
		t.Fatal("joint LP traits wrong")
	}
	if BohrSim.usesRDD() || !BohrRDD.usesRDD() || !Bohr.usesRDD() {
		t.Fatal("RDD traits wrong")
	}
}

func TestComputeStats(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	st, _, err := computeStats(c, w.Datasets[0], 30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != w.Datasets[0].Name {
		t.Fatalf("name = %q", st.Name)
	}
	if len(st.InputMB) != 4 || len(st.SelfSim) != 4 || len(st.CrossSim) != 4 {
		t.Fatalf("stats shape: %d/%d/%d", len(st.InputMB), len(st.SelfSim), len(st.CrossSim))
	}
	for i, s := range st.SelfSim {
		if s < 0 || s > 1 {
			t.Fatalf("self-sim[%d] = %v", i, s)
		}
		for j, x := range st.CrossSim[i] {
			if x < 0 || x > 1 {
				t.Fatalf("cross-sim[%d][%d] = %v", i, j, x)
			}
		}
	}
	if st.Reduction <= 0 {
		t.Fatalf("reduction = %v", st.Reduction)
	}
	if st.CheckTime <= 0 {
		t.Fatalf("check time = %v", st.CheckTime)
	}
	if st.NumDims != 3 {
		t.Fatalf("dims = %d", st.NumDims)
	}
	if _, _, err := computeStats(c, w.Datasets[0], 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestReductionProfilesUDF(t *testing.T) {
	c, w := testSetup(t, workload.BigDataUDF, false)
	st, _, err := computeStats(c, w.Datasets[0], 30)
	if err != nil {
		t.Fatal(err)
	}
	// The UDF map emits two records per input.
	if math.Abs(st.Reduction-2) > 1e-9 {
		t.Fatalf("UDF reduction = %v, want 2", st.Reduction)
	}
}

// TestStatsLeaveStoresCompactable: the statistics read their reduction
// sample out of a store without handing its records out, so after
// ComputeAllStats on a fresh cluster the first forward out of the sampled
// store compacts its array in place instead of copying the site.
func TestStatsLeaveStoresCompactable(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	if _, err := ComputeAllStats(c, w, 30); err != nil {
		t.Fatal(err)
	}
	ds := w.Datasets[0].Name
	st := c.Data[0].Store(ds) // the first site holds the whole sample
	array := func() *engine.KV {
		recs, release := st.Lease()
		defer release()
		return unsafe.SliceData(recs)
	}
	before := array()
	spec := engine.MoveSpec{Dataset: ds, Src: 0, Dst: 1, MB: c.MB(3)}
	if _, err := c.ApplyMoves([]engine.MoveSpec{spec}, engine.RandomMover{}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if array() != before {
		t.Fatal("the first forward after ComputeAllStats copied the sampled store's records to a new array")
	}
}

func TestPlanSchemeAllSchemes(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	opts := Options{Lag: 30, ProbeK: 30, Seed: 1}
	for _, id := range AllSchemes() {
		plan, err := PlanScheme(id, c, w, opts)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if plan.Scheme != id {
			t.Fatalf("%v: scheme mismatch", id)
		}
		var fracSum float64
		for _, f := range plan.TaskFrac {
			if f < -1e-9 {
				t.Fatalf("%v: negative task fraction", id)
			}
			fracSum += f
		}
		if math.Abs(fracSum-1) > 1e-3 {
			t.Fatalf("%v: task fractions sum %v", id, fracSum)
		}
		if plan.UseCubes != (id != Iridium) {
			t.Fatalf("%v: cube flag wrong", id)
		}
		if (plan.Assigner != nil) != id.usesRDD() {
			t.Fatalf("%v: assigner presence wrong", id)
		}
		if id.usesSimilarity() && plan.CheckTime <= 0 {
			t.Fatalf("%v: similarity scheme needs check time", id)
		}
		if !id.usesSimilarity() && plan.CheckTime != 0 {
			t.Fatalf("%v: agnostic scheme has check time %v", id, plan.CheckTime)
		}
		if plan.LPTime < 0 {
			t.Fatalf("%v: negative LP time", id)
		}
		// Movement must respect lag budgets per site.
		upMB := make([]float64, c.N())
		downMB := make([]float64, c.N())
		for _, sp := range plan.Moves {
			if sp.MB < 0 {
				t.Fatalf("%v: negative move", id)
			}
			upMB[sp.Src] += sp.MB
			downMB[sp.Dst] += sp.MB
		}
		for i := 0; i < c.N(); i++ {
			if upMB[i] > opts.Lag*c.Top.Sites[i].UpMBps+1e-3 {
				t.Fatalf("%v: site %d uploads %v MB over lag budget", id, i, upMB[i])
			}
			if downMB[i] > opts.Lag*c.Top.Sites[i].DownMBps+1e-3 {
				t.Fatalf("%v: site %d downloads %v MB over lag budget", id, i, downMB[i])
			}
		}
	}
}

func TestPlanExecuteMovesData(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	plan, err := PlanScheme(Bohr, c, w, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("expected the joint LP to move data off the slow site")
	}
	before := 0
	for i := 0; i < c.N(); i++ {
		before += len(c.Data[i].Records(w.Datasets[0].Name))
	}
	res, err := plan.Execute(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records <= 0 {
		t.Fatal("no records moved")
	}
	after := 0
	for i := 0; i < c.N(); i++ {
		after += len(c.Data[i].Records(w.Datasets[0].Name))
	}
	if before != after {
		t.Fatalf("records not conserved: %d → %d", before, after)
	}
	if res.Duration <= 0 {
		t.Fatal("movement duration missing")
	}
}

func TestJobConfigFor(t *testing.T) {
	c, w := testSetup(t, workload.BigDataScan, false)
	plan, err := PlanScheme(IridiumC, c, w, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := w.Datasets[0].Queries[0].Query
	cfg := plan.JobConfigFor(q)
	if !cfg.CubeInput {
		t.Fatal("cube scheme should read cube input")
	}
	wantLP := plan.LPTime / float64(len(plan.Stats))
	if math.Abs(cfg.ExtraQCT-wantLP) > 1e-12 {
		t.Fatalf("LP time must flow into QCT amortized over datasets: got %v want %v", cfg.ExtraQCT, wantLP)
	}
	planRaw, _ := PlanScheme(Iridium, c, w, Options{Seed: 1})
	if planRaw.JobConfigFor(q).CubeInput {
		t.Fatal("raw scheme should not read cube input")
	}
}

func TestMoverForDefaultsToRandom(t *testing.T) {
	p := &Plan{movers: map[string]engine.Mover{}}
	if _, ok := p.MoverFor("missing").(engine.RandomMover); !ok {
		t.Fatal("unknown dataset should get the random mover")
	}
}

// The headline behaviour: on a workload with real cross-site similarity,
// Bohr must produce less intermediate data than Iridium-C, which in turn
// should not beat Bohr. This is the Figure 8/11 mechanism distilled.
func TestBohrReducesIntermediateVsIridiumC(t *testing.T) {
	base, w := testSetup(t, workload.BigDataScan, false)
	opts := Options{Lag: 30, ProbeK: 30, Seed: 5}

	interFor := func(id SchemeID) float64 {
		c := base.Clone()
		plan, err := PlanScheme(id, c, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(c, 11); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, ds := range w.Datasets {
			q := ds.DominantQuery().Query
			res, err := c.Run(context.Background(), plan.JobConfigFor(q))
			if err != nil {
				t.Fatal(err)
			}
			total += stats.Sum(res.IntermediateMBPerSite)
		}
		return total
	}
	bohr := interFor(Bohr)
	iridiumC := interFor(IridiumC)
	if bohr >= iridiumC {
		t.Fatalf("Bohr intermediate %v should be below Iridium-C %v", bohr, iridiumC)
	}
}

// Bohr-Sim must also beat Iridium-C (§8.3.1: most of the gain comes from
// data similarity alone). The Facebook workload has fine-grained job-class
// keys, where record choice matters; coarse aggregation keys (country ×
// hour) would make the two schemes indistinguishable at this scale.
func TestBohrSimBeatsIridiumC(t *testing.T) {
	base, w := testSetup(t, workload.Facebook, false)
	opts := Options{Lag: 30, ProbeK: 30, Seed: 3}
	interFor := func(id SchemeID) float64 {
		c := base.Clone()
		plan, err := PlanScheme(id, c, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(c, 4); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, ds := range w.Datasets {
			res, err := c.Run(context.Background(), plan.JobConfigFor(ds.DominantQuery().Query))
			if err != nil {
				t.Fatal(err)
			}
			total += stats.Sum(res.IntermediateMBPerSite)
		}
		return total
	}
	if sim, irc := interFor(BohrSim), interFor(IridiumC); sim >= irc {
		t.Fatalf("Bohr-Sim %v should be below Iridium-C %v", sim, irc)
	}
}

func TestSequentialHeuristicRespectsBudgets(t *testing.T) {
	c, w := testSetup(t, workload.TPCDS, false)
	sts, err := ComputeAllStats(c, w, 30)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Lag: 2, ProbeK: 30}.withDefaults()
	moves := sequentialHeuristic(c.Top, sts, opts, true)
	up := make([]float64, c.N())
	for _, sp := range moves {
		up[sp.Src] += sp.MB
	}
	for i := 0; i < c.N(); i++ {
		if up[i] > opts.Lag*c.Top.Sites[i].UpMBps+1e-6 {
			t.Fatalf("site %d over budget: %v MB in %v s lag", i, up[i], opts.Lag)
		}
	}
}

func TestBottleneckHelper(t *testing.T) {
	f := []float64{100, 10, 10}
	up := []float64{1, 1, 1}
	b, t1, t2 := bottleneck(f, up)
	if b != 0 || t1 != 100 || t2 != 10 {
		t.Fatalf("bottleneck = %d %v %v", b, t1, t2)
	}
}

func TestPickReceiver(t *testing.T) {
	st := &DatasetStats{CrossSim: [][]float64{
		{0, 0.1, 0.9},
		{0.1, 0, 0},
		{0.9, 0, 0},
	}}
	budget := []float64{100, 100, 100}
	up := []float64{5, 10, 10}
	f := []float64{50, 1, 1}
	t1 := f[0] / up[0]
	// Similarity-aware from site 0: site 2 has the similar data.
	if j := pickReceiver(st, 0, t1, f, up, budget, true); j != 2 {
		t.Fatalf("aware receiver = %d, want 2", j)
	}
	// Exhausted budget removes a receiver.
	budget[2] = 0
	if j := pickReceiver(st, 0, t1, f, up, budget, true); j != 1 {
		t.Fatalf("receiver with budget = %d, want 1", j)
	}
	// No receiver available.
	if j := pickReceiver(st, 0, t1, f, up, []float64{0, 0, 0}, true); j != -1 {
		t.Fatalf("no receiver should be -1, got %d", j)
	}
	// A receiver with a slower uplink than the bottleneck is skipped.
	slowUp := []float64{10, 5, 5}
	if j := pickReceiver(st, 0, 5, []float64{50, 1, 1}, slowUp, []float64{100, 100, 100}, true); j != -1 {
		t.Fatalf("slower receivers should be skipped, got %d", j)
	}
}
