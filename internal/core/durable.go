package core

import (
	"fmt"

	"bohr/internal/olap"
)

// ExportCubeState copies out the per-site base-cube columns of a dataset
// with live ingest state — what a durability snapshot persists and
// recovery feeds back through RestoreCubeState. A dataset never ingested
// into yields nil: its cube state derives from the seed workload, so a
// snapshot need not carry it. The caller must hold the system quiescent
// (the serving layer exports under its state lock and a pipeline barrier).
func (s *System) ExportCubeState(dataset string) []olap.Columns {
	p, ok := s.preps[dataset]
	if !ok {
		return nil
	}
	sites := make([]olap.Columns, len(p.Sites))
	for i, cs := range p.Sites {
		sites[i] = cs.Base().ExportColumns()
	}
	return sites
}

// RestoreCubeState replaces the dataset's per-site cube state with a
// snapshot's: the preprocessor is materialized if the system has not
// ingested into the dataset yet this run, then every site's base cube is
// swapped and its derived cubes invalidated (they rebuild from the
// restored base on next use). Call on a prepared system before serving
// starts.
func (s *System) RestoreCubeState(dataset string, sites []olap.Columns) error {
	p, err := s.preprocessor(dataset)
	if err != nil {
		return fmt.Errorf("core: restore cube state: %w", err)
	}
	if len(sites) != len(p.Sites) {
		return fmt.Errorf("core: restore cube state: %q snapshot has %d sites, system has %d",
			dataset, len(sites), len(p.Sites))
	}
	for i, cols := range sites {
		if err := p.Sites[i].RestoreBase(cols); err != nil {
			return fmt.Errorf("core: restore cube state: %q site %d: %w", dataset, i, err)
		}
	}
	return nil
}

// RestoreIngestProgress sets the applied-batch counter a snapshot
// recorded, so the replan cadence resumes where the crashed process
// left off instead of restarting from zero.
func (s *System) RestoreIngestProgress(batches int) {
	s.ingestBatches = batches
}
