package experiments

import (
	"context"
	"fmt"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// SchemeResult is one scheme's aggregate outcome on one workload run.
type SchemeResult struct {
	MeanQCT float64
	// ReductionPerSite is the per-site data reduction ratio (%) versus
	// vanilla in-place processing.
	ReductionPerSite []float64
	// IntermediateMB per site (summed across queries).
	IntermediateMB []float64
}

// runScheme prepares and runs one scheme against a cloned snapshot and
// returns its metrics, including data reduction against the vanilla
// baseline computed on the same snapshot.
func (s Setup) runScheme(id placement.SchemeID, snapshot *coreSnapshot, run int) (*SchemeResult, error) {
	c := snapshot.cluster.Clone()
	opts := s.PlacementOptions(run)
	if s.sink != nil {
		opts.Obs = obs.NewCollector()
	}
	sys, err := core.New(c, snapshot.workload, id, opts)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Prepare(context.Background()); err != nil {
		return nil, fmt.Errorf("experiments: %v prepare: %w", id, err)
	}
	rep, err := sys.RunAll(context.Background())
	if err != nil {
		return nil, fmt.Errorf("experiments: %v run: %w", id, err)
	}
	reduction := core.DataReduction(snapshot.vanilla, rep.IntermediateMBPerSite)
	if s.sink != nil {
		r := sys.Report()
		r.Rep = run + 1
		r.DataReductionPct = reduction
		s.sink.reports = append(s.sink.reports, r)
	}
	return &SchemeResult{
		MeanQCT:          rep.MeanQCT,
		ReductionPerSite: reduction,
		IntermediateMB:   rep.IntermediateMBPerSite,
	}, nil
}

// coreSnapshot is one generated workload instance with its vanilla
// baseline, shared across schemes so every scheme sees identical data.
type coreSnapshot struct {
	cluster  *engine.Cluster
	workload *workload.Workload
	vanilla  []float64
}

// snapshot builds the shared instance for one (kind, locality, run).
func (s Setup) snapshot(kind workload.Kind, locality bool, run int) (*coreSnapshot, error) {
	c, w, err := s.Populated(kind, locality, run)
	if err != nil {
		return nil, err
	}
	vanilla, err := core.VanillaBaseline(context.Background(), c.Clone(), w)
	if err != nil {
		return nil, err
	}
	return &coreSnapshot{cluster: c, workload: w, vanilla: vanilla}, nil
}

// QCTRow is one bar group of Figures 6, 7 and 10: a workload's mean QCT
// under each scheme.
type QCTRow struct {
	Workload string
	QCT      map[string]float64
}

// qctFigure runs the given schemes over all five workloads, averaging
// over Setup.Runs repetitions.
func (s Setup) qctFigure(schemes []placement.SchemeID, locality bool) ([]QCTRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var rows []QCTRow
	for _, kind := range workload.Kinds() {
		row := QCTRow{Workload: kind.String(), QCT: map[string]float64{}}
		sums := make(map[string]float64, len(schemes))
		for run := 0; run < s.Runs; run++ {
			snap, err := s.snapshot(kind, locality, run)
			if err != nil {
				return nil, err
			}
			for _, id := range schemes {
				res, err := s.runScheme(id, snap, run)
				if err != nil {
					return nil, err
				}
				sums[id.String()] += res.MeanQCT
			}
		}
		for name, sum := range sums {
			row.QCT[name] = sum / float64(s.Runs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure6 reproduces the QCT comparison with random initial placement:
// Iridium vs Iridium-C vs Bohr over the five workloads.
func Figure6(s Setup) ([]QCTRow, error) {
	return s.qctFigure([]placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}, false)
}

// Figure7 is Figure 6 with locality-aware initial placement.
func Figure7(s Setup) ([]QCTRow, error) {
	return s.qctFigure([]placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}, true)
}

// ReductionRow is one site's bar group of Figures 8, 9 and 11.
type ReductionRow struct {
	Site      string
	Reduction map[string]float64
}

// reductionFigure runs the given schemes on the big data workload and
// reports per-site data reduction ratios.
func (s Setup) reductionFigure(schemes []placement.SchemeID, locality bool) ([]ReductionRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sums := map[string][]float64{}
	top := s.Topology()
	for run := 0; run < s.Runs; run++ {
		snap, err := s.snapshot(workload.BigDataScan, locality, run)
		if err != nil {
			return nil, err
		}
		for _, id := range schemes {
			res, err := s.runScheme(id, snap, run)
			if err != nil {
				return nil, err
			}
			if sums[id.String()] == nil {
				sums[id.String()] = make([]float64, s.Sites)
			}
			for i, r := range res.ReductionPerSite {
				sums[id.String()][i] += r
			}
		}
	}
	rows := make([]ReductionRow, s.Sites)
	for i := 0; i < s.Sites; i++ {
		rows[i] = ReductionRow{Site: top.Site(wan.SiteID(i)).Name, Reduction: map[string]float64{}}
		for _, id := range schemes {
			rows[i].Reduction[id.String()] = sums[id.String()][i] / float64(s.Runs)
		}
	}
	return rows, nil
}

// Figure8 reproduces per-site intermediate data reduction (random
// placement): Iridium vs Iridium-C vs Bohr on the big data workload.
func Figure8(s Setup) ([]ReductionRow, error) {
	return s.reductionFigure([]placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}, false)
}

// Figure9 is Figure 8 with locality-aware initial placement.
func Figure9(s Setup) ([]ReductionRow, error) {
	return s.reductionFigure([]placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}, true)
}

// microSchemes are the component micro-benchmark schemes of Figures 10/11.
func microSchemes() []placement.SchemeID {
	return []placement.SchemeID{placement.IridiumC, placement.BohrSim, placement.BohrJoint, placement.BohrRDD}
}

// Figure10 reproduces the component QCT microbenchmark: Iridium-C vs
// Bohr-Sim vs Bohr-Joint vs Bohr-RDD over the five workloads.
func Figure10(s Setup) ([]QCTRow, error) {
	return s.qctFigure(microSchemes(), false)
}

// Figure11 reproduces the component data-reduction microbenchmark on the
// big data workload.
func Figure11(s Setup) ([]ReductionRow, error) {
	return s.reductionFigure(microSchemes(), false)
}

// KSweepRow is one x-axis point of Figures 12/13: the probe size k and the
// metric per workload.
type KSweepRow struct {
	K     int
	Value map[string]float64
}

// ProbeKValues are the x-axis of Figures 12 and 13.
var ProbeKValues = []int{10, 15, 20, 25, 30, 100}

// kSweepKinds are the three workloads Figures 12/13 plot.
func kSweepKinds() []workload.Kind {
	return []workload.Kind{workload.BigDataUDF, workload.TPCDS, workload.Facebook}
}

// kSweep runs full Bohr at each probe budget and reports, per workload,
// either the mean data reduction (%) or the mean QCT. The sweep isolates
// similarity-estimation accuracy, which is the binding factor at moderate
// dataset counts; with many datasets the movement lag budget binds instead
// and every k produces the same budget-limited plan, flattening the curve.
// The sweep therefore caps the dataset count at four.
func (s Setup) kSweep(metricQCT bool) ([]KSweepRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Datasets > 4 {
		s.Datasets = 4
	}
	// The snapshots do not depend on k and runScheme plans on a clone, so
	// each (workload, run) is built once for the whole sweep.
	kinds := kSweepKinds()
	snaps := make([][]*coreSnapshot, len(kinds))
	for i, kind := range kinds {
		for run := 0; run < s.Runs; run++ {
			snap, err := s.snapshot(kind, false, run)
			if err != nil {
				return nil, err
			}
			snaps[i] = append(snaps[i], snap)
		}
	}
	var rows []KSweepRow
	for _, k := range ProbeKValues {
		row := KSweepRow{K: k, Value: map[string]float64{}}
		sk := s
		sk.ProbeK = k
		for i, kind := range kinds {
			var sum float64
			for run, snap := range snaps[i] {
				res, err := sk.runScheme(placement.Bohr, snap, run)
				if err != nil {
					return nil, err
				}
				if metricQCT {
					sum += res.MeanQCT
				} else {
					sum += stats.Mean(res.ReductionPerSite)
				}
			}
			row.Value[kind.String()] = sum / float64(s.Runs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure12 reproduces data reduction versus probe size k.
func Figure12(s Setup) ([]KSweepRow, error) { return s.kSweep(false) }

// Figure13 reproduces QCT versus probe size k.
func Figure13(s Setup) ([]KSweepRow, error) { return s.kSweep(true) }
