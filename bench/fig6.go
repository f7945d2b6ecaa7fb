package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/experiments"
	"bohr/internal/lp"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// fig6Workload regenerates the paper's Figure 6 (QCT of Iridium,
// Iridium-C and Bohr over the five workload kinds, random initial
// placement) from public calls. One pass is 20 ops: per kind, one
// snapshot op (generate + populate + vanilla baseline) and one op per
// scheme (clone the snapshot, plan, move, run every dataset's query).
var fig6Workload = workloadSpec{
	name:   "fig6-batch",
	opUnit: "snapshot-or-scheme",
	warm:   fig6OpsPerKind,
	ops:    fig6OpsPerPass,
	// A whole untraced pass first, so that every kind's reference QCT comes
	// from core.System and the traced path is checked against it.
	traceWarm: fig6OpsPerPass,
	setup:     setupFig6,
}

var fig6Schemes = []placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}

const (
	fig6OpsPerKind = 4 // snapshot + three schemes
	fig6OpsPerPass = 5 * fig6OpsPerKind
)

// fig6Setup is the deployment every pass runs on: bench_test.go's
// benchSetup shape (10 sites, 4 datasets, one run) at 1,000 rows per
// site so that six passes fit the run length.
func fig6Setup(seed int64) experiments.Setup {
	s := experiments.DefaultSetup()
	s.Datasets = 4
	s.RowsPerSite = 1000
	s.KeysPerPool = 250
	s.Runs = 1
	s.Seed = seed
	return s
}

type fig6Instance struct {
	s experiments.Setup
	// The current kind's snapshot, shared by its three scheme ops.
	cluster *engine.Cluster
	w       *workload.Workload
	// qct is the reference QCT table: the first value seen per
	// kind/scheme; every later pass must reproduce it exactly, on the
	// core.System path and on the traced path rebuilt from public calls.
	qct map[string]float64
	// Counts the traced phase reports.
	records, recordOps int
	moves, moveOps     int
}

func setupFig6(seed int64, warm int) (instance, error) {
	f := &fig6Instance{s: fig6Setup(seed), qct: map[string]float64{}}
	for i := 0; i < warm; i++ {
		if !f.op(i, nil) {
			return nil, fmt.Errorf("warm-up op %d failed", i)
		}
	}
	return f, nil
}

func (f *fig6Instance) op(i int, tr *tracer) bool {
	within := i % fig6OpsPerPass
	kind := workload.Kinds()[within/fig6OpsPerKind]
	sub := within % fig6OpsPerKind
	ctx := context.Background()
	if sub == 0 {
		id := tr.push("workload.generate")
		c, w, err := f.s.Populated(kind, false, 0)
		tr.pop(id)
		if err != nil {
			fmt.Printf("fig6: %v: populate: %v\n", kind, err)
			return false
		}
		id = tr.push("engine.vanilla")
		_, err = core.VanillaBaseline(ctx, c.Clone(), w)
		tr.pop(id)
		if err != nil {
			fmt.Printf("fig6: %v: vanilla: %v\n", kind, err)
			return false
		}
		f.cluster, f.w = c, w
		for _, ds := range w.Datasets {
			for _, rows := range ds.Rows {
				f.records += len(rows)
			}
		}
		f.recordOps++
		return true
	}
	if f.cluster == nil {
		fmt.Printf("fig6: scheme op %d before its snapshot op\n", i)
		return false
	}
	scheme := fig6Schemes[sub-1]
	var qct float64
	var err error
	if tr == nil {
		qct, err = f.runSchemeCore(ctx, scheme)
	} else {
		qct, err = f.runSchemeTraced(ctx, scheme, tr)
	}
	if err != nil {
		fmt.Printf("fig6: %v/%v: %v\n", kind, scheme, err)
		return false
	}
	key := kind.String() + "/" + scheme.String()
	if ref, seen := f.qct[key]; seen && ref != qct {
		fmt.Printf("fig6: %s: QCT %v differs from the first pass's %v\n", key, qct, ref)
		return false
	}
	f.qct[key] = qct
	if scheme == placement.Bohr {
		if iri := f.qct[kind.String()+"/"+placement.Iridium.String()]; qct > iri {
			fmt.Printf("fig6: %v: Bohr QCT %v above Iridium's %v\n", kind, qct, iri)
			return false
		}
	}
	return true
}

// runSchemeCore is the scheme op as the experiments run it.
func (f *fig6Instance) runSchemeCore(ctx context.Context, scheme placement.SchemeID) (float64, error) {
	sys, err := core.New(f.cluster.Clone(), f.w, scheme, f.s.PlacementOptions(0))
	if err != nil {
		return 0, err
	}
	if _, err := sys.Prepare(ctx); err != nil {
		return 0, err
	}
	rep, err := sys.RunAll(ctx)
	if err != nil {
		return 0, err
	}
	return rep.MeanQCT, nil
}

// runSchemeTraced is the same work as runSchemeCore spelled out in the
// public calls core.System makes, with a span around each; the QCT oracle
// checks the two agree.
func (f *fig6Instance) runSchemeTraced(ctx context.Context, scheme placement.SchemeID, tr *tracer) (float64, error) {
	id := tr.push("engine.clone")
	c := f.cluster.Clone()
	tr.pop(id)
	opts := f.s.PlacementOptions(0)
	id = tr.push("placement.plan." + strings.ToLower(scheme.String()))
	plan, err := placement.PlanScheme(scheme, c, f.w, opts)
	tr.pop(id)
	if err != nil {
		return 0, err
	}
	f.moves += len(plan.Moves)
	f.moveOps++
	id = tr.push("engine.move")
	_, err = plan.Execute(c, stats.Split(opts.Seed, 1001))
	tr.pop(id)
	if err != nil {
		return 0, err
	}
	cfgs := make([]engine.JobConfig, len(f.w.Datasets))
	for i, ds := range f.w.Datasets {
		cfgs[i] = plan.JobConfigFor(ds.DominantQuery().Query)
		cfgs[i].FaultClock = opts.Lag
	}
	id = tr.push("engine.run")
	results, err := c.RunConcurrent(ctx, cfgs)
	tr.pop(id)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range results {
		sum += r.QCT
	}
	return sum / float64(len(results)), nil
}

func (f *fig6Instance) finish(recover bool) error { return nil }

func (f *fig6Instance) close() {}

// timeMS is the mean wall time of reps calls of fn, in milliseconds.
func timeMS(reps int, fn func() error) (float64, error) {
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(reps), nil
}

func (f *fig6Instance) layers(n int, tr *tracer, out map[string]float64) error {
	m := tr.byName()
	out["workload.generate_ms"] = meanMS(m, "workload.generate")
	out["engine.vanilla_ms"] = meanMS(m, "engine.vanilla")
	for _, s := range fig6Schemes {
		name := strings.ToLower(s.String())
		out["placement.plan_ms."+name] = meanMS(m, "placement.plan."+name)
	}
	out["engine.move_ms"] = meanMS(m, "engine.move")
	out["engine.run_ms"] = meanMS(m, "engine.run")
	if root := m["op"]; root != nil {
		out["fig6.pass_ms"] = float64(root.total) / 1e6 / float64(n) * fig6OpsPerPass
	}
	if f.recordOps > 0 {
		out["workload.records"] = float64(f.records) / float64(f.recordOps)
	}
	if f.moveOps > 0 {
		out["placement.moves"] = float64(f.moves) / float64(f.moveOps)
	}
	var ratio float64
	kinds := 0
	for _, k := range workload.Kinds() {
		bohr, ok := f.qct[k.String()+"/"+placement.Bohr.String()]
		iri := f.qct[k.String()+"/"+placement.Iridium.String()]
		if ok && iri > 0 {
			ratio += bohr / iri
			kinds++
		}
	}
	if kinds > 0 {
		out["core.qct_bohr_over_iridium"] = ratio / float64(kinds)
	}

	// Kernel probes: direct timed calls of public functions, on the last
	// snapshot's own data where the function takes data.
	var err error
	if f.cluster != nil {
		out["placement.stats_ms"], err = timeMS(3, func() error {
			_, err := placement.ComputeAllStats(f.cluster, f.w, f.s.ProbeK)
			return err
		})
		if err != nil {
			return err
		}
		ds := f.w.Datasets[0]
		var rows []olap.Row
		for _, site := range ds.Rows {
			rows = append(rows, site...)
		}
		out["olap.build_cube_ms"], err = timeMS(10, func() error {
			_, err := olap.BuildCube(ds.Schema, rows, 0)
			return err
		})
		if err != nil {
			return err
		}
	}
	in := lpProbeInput()
	out["lp.solve_ms"], err = timeMS(5, func() error {
		_, err := lp.SolvePlacement(in)
		return err
	})
	return err
}

// lpProbeInput is a fixed 10-site, 4-dataset joint placement problem, the
// shape PlanScheme hands the LP on this workload.
func lpProbeInput() *lp.PlacementInput {
	const n, m = 10, 4
	rng := stats.NewRand(11)
	in := &lp.PlacementInput{Sites: n, Datasets: m, Up: make([]float64, n), Down: make([]float64, n), Lag: 30}
	for i := 0; i < n; i++ {
		in.Up[i] = 3 + rng.Float64()*12
		in.Down[i] = 3 + rng.Float64()*12
	}
	for a := 0; a < m; a++ {
		input := make([]float64, n)
		self := make([]float64, n)
		cross := make([][]float64, n)
		for i := 0; i < n; i++ {
			input[i] = rng.Float64() * 10
			self[i] = rng.Float64()
			cross[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				cross[i][j] = rng.Float64()
			}
			cross[i][i] = self[i]
		}
		in.Input = append(in.Input, input)
		in.SelfSim = append(in.SelfSim, self)
		in.CrossSim = append(in.CrossSim, cross)
		in.Reduction = append(in.Reduction, rng.Float64())
	}
	return in
}
