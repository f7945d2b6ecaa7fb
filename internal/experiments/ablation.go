package experiments

import (
	"context"
	"fmt"
	"strings"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// AblationRow reports one design-choice variant of full Bohr.
type AblationRow struct {
	Variant       string
	MeanQCT       float64
	MeanReduction float64
}

// AblationPlacement isolates the design choices DESIGN.md calls out, each
// as a variant of full Bohr on the big data workload:
//
//   - full:            everything on (the reference point)
//   - paper-eq1:       incoming data combines at the destination's own
//     rate, the literal Eq. (1), instead of the pairwise probe rate
//   - no-calibration:  the joint LP trusts its first solve instead of
//     re-solving against profiled volumes
//   - random-mover:    Bohr's plan executed with random record selection
//     (isolates WHICH records move)
func AblationPlacement(s Setup) ([]AblationRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	type variant struct {
		name   string
		mutate func(*placement.Options)
		random bool
	}
	variants := []variant{
		{name: "full", mutate: func(*placement.Options) {}},
		{name: "paper-eq1", mutate: func(o *placement.Options) { o.PaperObjective = true }},
		{name: "no-calibration", mutate: func(o *placement.Options) { o.DisableCalibration = true }},
		{name: "random-mover", mutate: func(*placement.Options) {}, random: true},
	}

	sums := map[string]*AblationRow{}
	for _, v := range variants {
		sums[v.name] = &AblationRow{Variant: v.name}
	}
	for run := 0; run < s.Runs; run++ {
		snap, err := s.snapshot(workload.BigDataScan, false, run)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			opts := s.PlacementOptions(run)
			v.mutate(&opts)
			c := snap.cluster.Clone()
			plan, err := placement.PlanScheme(placement.Bohr, c, snap.workload, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
			}
			if v.random {
				plan.UseRandomMovers()
			}
			if _, err := plan.Execute(c, s.Seed+int64(run)); err != nil {
				return nil, err
			}
			qct, reduction, err := dominantRun(c, snap, plan)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
			}
			sums[v.name].MeanQCT += qct
			sums[v.name].MeanReduction += reduction
		}
	}
	out := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		row := sums[v.name]
		row.MeanQCT /= float64(s.Runs)
		row.MeanReduction /= float64(s.Runs)
		out = append(out, *row)
	}
	return out, nil
}

// dominantRun runs every dataset's dominant query on an already-moved
// cluster under the plan and returns the mean QCT and mean data reduction.
func dominantRun(c *engine.Cluster, snap *coreSnapshot, plan *placement.Plan) (qct, reduction float64, err error) {
	cfgs := make([]engine.JobConfig, len(snap.workload.Datasets))
	for i, ds := range snap.workload.Datasets {
		cfgs[i] = plan.JobConfigFor(ds.DominantQuery().Query)
	}
	results, err := c.RunConcurrent(context.Background(), cfgs)
	if err != nil {
		return 0, 0, err
	}
	inter := make([]float64, c.N())
	for _, res := range results {
		qct += res.QCT
		for i, mb := range res.IntermediateMBPerSite {
			inter[i] += mb
		}
	}
	return qct / float64(len(results)), stats.Mean(core.DataReduction(snap.vanilla, inter)), nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: full Bohr vs single-choice variants (big data workload)\n")
	fmt.Fprintf(&b, "%-16s%10s%14s\n", "Variant", "QCT", "Reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s%9.2fs%13.1f%%\n", r.Variant, r.MeanQCT, r.MeanReduction)
	}
	return b.String()
}
