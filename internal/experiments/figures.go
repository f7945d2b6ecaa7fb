package experiments

import (
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

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
		qct, err := s.meanQCT(kind, locality, schemes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QCTRow{Workload: kind.String(), QCT: qct})
	}
	return rows, nil
}

// meanQCT averages each scheme's mean QCT on one workload over Setup.Runs
// repetitions, keyed by scheme name.
func (s Setup) meanQCT(kind workload.Kind, locality bool, schemes []placement.SchemeID) (map[string]float64, error) {
	sums := make([]float64, len(schemes))
	for run := 0; run < s.Runs; run++ {
		res, err := schemeRuns(kind, locality, run, schemes, s)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			sums[i] += s.file(r).MeanQCT
		}
	}
	qct := make(map[string]float64, len(schemes))
	for i, id := range schemes {
		qct[id.String()] = sums[i] / float64(s.Runs)
	}
	return qct, nil
}

// comparisonSchemes are the schemes of Figures 6–9 and the fault sweep.
func comparisonSchemes() []placement.SchemeID {
	return []placement.SchemeID{placement.Iridium, placement.IridiumC, placement.Bohr}
}

// Figure6 reproduces the QCT comparison with random initial placement:
// Iridium vs Iridium-C vs Bohr over the five workloads.
func Figure6(s Setup) ([]QCTRow, error) {
	return s.qctFigure(comparisonSchemes(), false)
}

// Figure7 is Figure 6 with locality-aware initial placement.
func Figure7(s Setup) ([]QCTRow, error) {
	return s.qctFigure(comparisonSchemes(), true)
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
	sums := make([][]float64, len(schemes))
	for i := range sums {
		sums[i] = make([]float64, s.Sites)
	}
	for run := 0; run < s.Runs; run++ {
		res, err := schemeRuns(workload.BigDataScan, locality, run, schemes, s)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			for site, red := range s.file(r).ReductionPerSite {
				sums[i][site] += red
			}
		}
	}
	top := s.Topology()
	rows := make([]ReductionRow, s.Sites)
	for site := range rows {
		rows[site] = ReductionRow{Site: top.Site(wan.SiteID(site)).Name, Reduction: map[string]float64{}}
		for i, id := range schemes {
			rows[site].Reduction[id.String()] = sums[i][site] / float64(s.Runs)
		}
	}
	return rows, nil
}

// Figure8 reproduces per-site intermediate data reduction (random
// placement): Iridium vs Iridium-C vs Bohr on the big data workload.
func Figure8(s Setup) ([]ReductionRow, error) {
	return s.reductionFigure(comparisonSchemes(), false)
}

// Figure9 is Figure 8 with locality-aware initial placement.
func Figure9(s Setup) ([]ReductionRow, error) {
	return s.reductionFigure(comparisonSchemes(), true)
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
	// The instances do not depend on k, so each (workload, run) is asked
	// for every k at once and built at most once for the whole sweep.
	sks := make([]Setup, len(ProbeKValues))
	for j, k := range ProbeKValues {
		sks[j] = s
		sks[j].ProbeK = k
	}
	kinds := kSweepKinds()
	res := make([][][]*SchemeResult, len(kinds)) // [kind][run][k]
	for i, kind := range kinds {
		for run := 0; run < s.Runs; run++ {
			r, err := schemeRuns(kind, false, run, []placement.SchemeID{placement.Bohr}, sks...)
			if err != nil {
				return nil, err
			}
			res[i] = append(res[i], r)
		}
	}
	var rows []KSweepRow
	for j, k := range ProbeKValues {
		row := KSweepRow{K: k, Value: map[string]float64{}}
		for i, kind := range kinds {
			var sum float64
			for _, runs := range res[i] {
				if r := s.file(runs[j]); metricQCT {
					sum += r.MeanQCT
				} else {
					sum += stats.Mean(r.ReductionPerSite)
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
