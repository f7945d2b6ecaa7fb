package experiments

import (
	"fmt"

	"bohr/internal/faults"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// FaultIntensities is the x-axis of the fault sweep: the fraction of
// sites hit by seeded degrade/crash/straggler events (0 = clean run).
var FaultIntensities = []float64{0, 0.15, 0.3, 0.45, 0.6}

// FaultSweepRow is one x-axis point of the fault sweep: mean QCT per
// scheme at one fault intensity, plus the number of injected events.
type FaultSweepRow struct {
	Intensity float64
	Events    int
	QCT       map[string]float64
}

// FaultSweep measures QCT versus fault intensity on the big data scan
// workload: at each intensity a seeded random fault schedule (link
// degrades, site crashes, stragglers) spans the movement window and the
// query run, and Iridium, Iridium-C and Bohr re-plan against the degraded
// view before executing under it. The schedule at each intensity is a
// deterministic function of the setup seed, so the sweep is byte-stable
// across invocations.
func FaultSweep(s Setup) ([]FaultSweepRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Horizon covers the movement lag plus the query window the modeled
	// runs actually occupy at this scale.
	horizon := s.Lag + 60
	var rows []FaultSweepRow
	for i, intensity := range FaultIntensities {
		sched := faults.Random(stats.Split(s.Seed, int64(7700+i)), s.Sites, intensity, horizon)
		sf := s
		if !sched.Empty() {
			sf.Faults = sched
		}
		qct, err := sf.meanQCT(workload.BigDataScan, false, comparisonSchemes())
		if err != nil {
			return nil, err
		}
		rows = append(rows, FaultSweepRow{Intensity: intensity, Events: len(sched.Events), QCT: qct})
	}
	return rows, nil
}

// FormatFaultSweep renders fault sweep rows as an aligned text table.
func FormatFaultSweep(rows []FaultSweepRow, schemes []string) string {
	return formatColumns("Fault sweep: QCT vs fault intensity (big data scan)",
		fmt.Sprintf("%-10s %7s", "Intensity", "Events"), schemes, 12, "s", rows,
		func(r FaultSweepRow) string { return fmt.Sprintf("%-10.2f %7d", r.Intensity, r.Events) },
		func(r FaultSweepRow, s string) float64 { return r.QCT[s] })
}
