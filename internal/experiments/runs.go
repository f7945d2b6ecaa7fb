package experiments

import (
	"context"
	"fmt"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/placement"
	"bohr/internal/workload"
)

// SchemeResult is one scheme's aggregate outcome on one workload run.
type SchemeResult struct {
	MeanQCT float64
	// ReductionPerSite is the per-site data reduction ratio (%) versus
	// vanilla in-place processing.
	ReductionPerSite []float64

	// report is the run's machine-readable report; nil unless the run
	// was made under an open run table.
	report *core.Report
}

// runTable keeps the scheme runs of one invocation, each with its report,
// so an exhibit that reads a run another exhibit made (Figure 8 reads
// Figure 6's) does not make it again. Setup holds it by pointer, so the
// value copies the exhibits pass around share one table; exhibits on one
// table run one at a time.
type runTable struct {
	runs  map[runKey]*SchemeResult
	filed []*core.Report // since the last drain
}

// runKey names a scheme run: its setup, table pointer cleared, its
// instance and its scheme.
type runKey struct {
	setup    Setup
	kind     workload.Kind
	locality bool
	run      int
	id       placement.SchemeID
}

// OpenRunTable opens the setup's run table: from then on every scheme run
// attaches an observability collector, keeps its result and core.Report,
// and is made once. Each exhibit files the report of every run it reads,
// made or kept, for DrainReports. Without it every exhibit makes its own
// runs, collector-free.
func (s *Setup) OpenRunTable() {
	if s.table == nil {
		s.table = &runTable{runs: map[runKey]*SchemeResult{}}
	}
}

// DrainReports returns the reports filed since the last drain and clears
// the list. Nil when OpenRunTable was never called.
func (s *Setup) DrainReports() []*core.Report {
	if s.table == nil {
		return nil
	}
	out := s.table.filed
	s.table.filed = nil
	return out
}

// file files res's report under the running exhibit and returns res.
func (s Setup) file(res *SchemeResult) *SchemeResult {
	if s.table != nil {
		s.table.filed = append(s.table.filed, res.report)
	}
	return res
}

// schemeRuns is the exhibits' one run loop. It returns the result of each
// scheme under each setup on the (kind, locality, run) instance, setup by
// setup; the setups differ only in what planning and execution read
// (ProbeK, Faults). An open table serves the runs it holds and keeps the
// ones made; the snapshot is built only when a run is missing. It files
// nothing: each exhibit files the reports in its own order.
func schemeRuns(kind workload.Kind, locality bool, run int, ids []placement.SchemeID, ss ...Setup) ([]*SchemeResult, error) {
	var out []*SchemeResult
	var snap *coreSnapshot
	for _, s := range ss {
		for _, id := range ids {
			key := runKey{setup: s, kind: kind, locality: locality, run: run, id: id}
			key.setup.table = nil
			var res *SchemeResult
			if s.table != nil {
				res = s.table.runs[key]
			}
			if res == nil {
				var err error
				if snap == nil {
					if snap, err = s.snapshot(kind, locality, run); err != nil {
						return nil, err
					}
				}
				if res, err = s.runScheme(id, snap, run); err != nil {
					return nil, err
				}
				if s.table != nil {
					s.table.runs[key] = res
				}
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// runSchemeHook, when set, is called once per runScheme call.
var runSchemeHook func()

// runScheme prepares and runs one scheme against a cloned snapshot and
// returns its metrics, including data reduction against the vanilla
// baseline computed on the same snapshot.
func (s Setup) runScheme(id placement.SchemeID, snapshot *coreSnapshot, run int) (*SchemeResult, error) {
	if runSchemeHook != nil {
		runSchemeHook()
	}
	c := snapshot.cluster.Clone()
	opts := s.PlacementOptions(run)
	if s.table != nil {
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
	res := &SchemeResult{
		MeanQCT:          rep.MeanQCT,
		ReductionPerSite: core.DataReduction(snapshot.vanilla, rep.IntermediateMBPerSite),
	}
	if s.table != nil {
		res.report = sys.Report()
		res.report.Rep = run + 1
		res.report.DataReductionPct = res.ReductionPerSite
	}
	return res, nil
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
