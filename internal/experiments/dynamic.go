package experiments

import (
	"context"
	"fmt"

	"bohr/internal/core"
	"bohr/internal/engine"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// DynamicConfig parameterizes the §8.6 highly-dynamic-dataset experiment:
// only part of each dataset is present initially, and the rest streams in
// between recurring queries in fixed-size batches.
type DynamicConfig struct {
	// InitialFraction of each dataset's rows present before the first
	// query (paper: 10 GB of 40 GB = 0.25).
	InitialFraction float64
	// BatchFraction arriving between consecutive queries (paper: 2 GB of
	// 40 GB = 0.05).
	BatchFraction float64
	// ReplanEvery re-runs similarity checking and placement after this
	// many batches (paper: every 5 queries, one batch arriving after each).
	ReplanEvery int
	// Queries is the number of recurring query arrivals to simulate.
	Queries int
}

// DefaultDynamicConfig mirrors §8.6.
func DefaultDynamicConfig() DynamicConfig {
	return DynamicConfig{InitialFraction: 0.25, BatchFraction: 0.05, ReplanEvery: 5, Queries: 15}
}

func (c DynamicConfig) validate() error {
	if c.InitialFraction <= 0 || c.InitialFraction > 1 {
		return fmt.Errorf("experiments: initial fraction %v out of (0,1]", c.InitialFraction)
	}
	if c.BatchFraction < 0 || c.BatchFraction > 1 {
		return fmt.Errorf("experiments: batch fraction %v out of [0,1]", c.BatchFraction)
	}
	if c.ReplanEvery <= 0 {
		return fmt.Errorf("experiments: replan interval must be positive, got %d", c.ReplanEvery)
	}
	if c.Queries <= 0 {
		return fmt.Errorf("experiments: dynamic run needs at least one query, got %d", c.Queries)
	}
	return nil
}

// RunDynamic scripts the §8.6 protocol on the path bohrd serves. The
// initial fraction of every dataset lands in place and the system
// prepares; each arrival then runs every dataset's recurring query, and
// all but the last are followed by one System.IngestBatch of every
// dataset's next batch at each site, forwarded along the current plan,
// replanning every ReplanEvery batches. An exhausted stream sends no batch,
// so it never replans. The cluster must hold none of the workload's data.
func RunDynamic(ctx context.Context, c *engine.Cluster, w *workload.Workload, scheme placement.SchemeID,
	dyn DynamicConfig, opts placement.Options) (*core.DynamicReport, error) {
	if err := dyn.validate(); err != nil {
		return nil, err
	}
	pos := make([][]int, len(w.Datasets)) // rows delivered, per dataset and site
	for d, ds := range w.Datasets {
		for i := 0; i < c.N(); i++ {
			if c.Data[i].Store(ds.Name).Len() > 0 {
				return nil, fmt.Errorf("experiments: dynamic run needs an empty cluster, dataset %q present at site %d", ds.Name, i)
			}
		}
		pos[d] = make([]int, len(ds.Rows))
	}
	// next cuts the next frac of every dataset's rows at every site, in
	// dataset then site order; a site with nothing left sends nothing.
	next := func(frac float64) (out []core.Arrival) {
		for d, ds := range w.Datasets {
			for i := 0; i < c.N() && i < len(ds.Rows); i++ {
				rest := ds.Rows[i][pos[d][i]:]
				if n := min(int(float64(len(ds.Rows[i]))*frac), len(rest)); n > 0 {
					out = append(out, core.Arrival{Dataset: ds.Name, Site: i, Rows: rest[:n]})
					pos[d][i] += n
				}
			}
		}
		return out
	}

	for _, a := range next(dyn.InitialFraction) {
		c.Data[a.Site].Add(a.Dataset, workload.Records(a.Rows)...)
	}
	sys, err := core.New(c, w, scheme, opts)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Prepare(ctx); err != nil {
		return nil, fmt.Errorf("experiments: initial dynamic plan: %w", err)
	}
	sys.SetReplanEvery(dyn.ReplanEvery)

	rep := &core.DynamicReport{Scheme: scheme}
	for qi := 0; qi < dyn.Queries; qi++ {
		run, err := sys.RunAll(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: dynamic arrival %d: %w", qi, err)
		}
		rep.QCTs = append(rep.QCTs, run.MeanQCT)
		if qi == dyn.Queries-1 {
			break
		}
		// IngestBatch rejects an empty arrival; an exhausted stream sends none.
		if batch := next(dyn.BatchFraction); len(batch) > 0 {
			if _, err := sys.IngestBatch(ctx, batch); err != nil {
				return nil, fmt.Errorf("experiments: dynamic batch %d: %w", qi, err)
			}
		}
	}
	rep.MeanQCT = stats.Mean(rep.QCTs)
	rep.Replans = 1 + sys.IngestReplans()
	rep.BatchesDelivered = sys.IngestBatches()
	return rep, nil
}
