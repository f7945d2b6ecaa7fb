package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"bohr/internal/engine"
	"bohr/internal/olap"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// ErrBadArrival marks an ingest batch the system can never apply — an
// unknown dataset, an out-of-range site, a row that does not match the
// dataset's schema. The serving layer maps it to a permanent rejection
// so the pipeline drops the batch instead of retrying it forever.
var ErrBadArrival = errors.New("core: bad ingest arrival")

// Arrival is one group of newly arrived rows landing at one site for one
// dataset — the unit the streaming pipeline delivers after grouping a
// source's batch.
type Arrival struct {
	Dataset string
	Site    int
	Rows    []olap.Row
}

// SetReplanEvery configures the live replan cadence: after every n
// applied ingest batches the similarity checking and placement re-run
// with up-to-date information, exactly like RunDynamic's periodic replan
// (0, the default, disables live replanning). Call before serving
// starts.
func (s *System) SetReplanEvery(n int) { s.replanEvery = n }

// IngestReplans reports how many live replans ingestion has triggered.
func (s *System) IngestReplans() int { return s.ingestReplans }

// IngestBatches reports how many ingest batches have been applied.
func (s *System) IngestBatches() int { return s.ingestBatches }

// RestoreIngestProgress sets the applied-batch counter a snapshot
// recorded, so the replan cadence resumes where the crashed process
// left off instead of restarting from zero.
func (s *System) RestoreIngestProgress(batches int) { s.ingestBatches = batches }

// IngestBatch applies one delivered batch of arrivals to a prepared
// system: every arrival is validated up front (all-or-nothing, returning
// ErrBadArrival-wrapped errors for unappliable batches), then each
// arrival's rows land in the arrival site's store and are forwarded
// along the current plan's movement shares — the same §8.6 step-2
// discipline RunDynamic applies to scripted batches. Every SetReplanEvery
// batches the system replans, refreshing the plan the serving layer
// executes queries under.
//
// IngestBatch is not safe for concurrent use with queries; the serving
// layer serializes it against reads (see serve.EngineBackend).
func (s *System) IngestBatch(ctx context.Context, arrivals []Arrival) (replanned bool, err error) {
	if s.plan == nil {
		return false, fmt.Errorf("core: Prepare must run before ingest")
	}
	if err := ctx.Err(); err != nil {
		return false, fmt.Errorf("core: ingest: %w", err)
	}
	// Validation pass: nothing mutates until the whole batch is known
	// appliable, so a rejected batch leaves no half-applied state.
	for _, a := range arrivals {
		ds := s.datasetNamed(a.Dataset)
		if ds == nil {
			return false, fmt.Errorf("%w: unknown dataset %q", ErrBadArrival, a.Dataset)
		}
		if a.Site < 0 || a.Site >= s.Cluster.N() {
			return false, fmt.Errorf("%w: site %d out of range [0,%d)", ErrBadArrival, a.Site, s.Cluster.N())
		}
		if len(a.Rows) == 0 {
			return false, fmt.Errorf("%w: empty arrival for %q", ErrBadArrival, a.Dataset)
		}
		for i, r := range a.Rows {
			if len(r.Coords) != ds.Schema.NumDims() {
				return false, fmt.Errorf("%w: %q row %d has %d coords, schema has %d dims",
					ErrBadArrival, a.Dataset, i, len(r.Coords), ds.Schema.NumDims())
			}
			for j, c := range r.Coords {
				if strings.Contains(c, engine.KeySep) {
					return false, fmt.Errorf("%w: %q row %d coord %d contains reserved separator",
						ErrBadArrival, a.Dataset, i, j)
				}
			}
		}
	}
	span := s.Obs.StartSpan("ingest.apply")
	defer span.End()
	for _, a := range arrivals {
		before := snapshotSizes(s.Cluster, a.Dataset)
		kvs := make([]engine.KV, len(a.Rows))
		for i, r := range a.Rows {
			kvs[i] = engine.KV{Key: workload.JoinKey(r.Coords), Val: r.Measure}
		}
		s.Cluster.Data[a.Site].Add(a.Dataset, kvs...)
		// New rows follow the current placement decision (§8.6 step 2).
		fwd := s.Obs.StartSpan("ingest.forward")
		forwarded, err := moveBatchByShares(s.Cluster, s.plan, a.Dataset, before, s.shares[a.Dataset])
		fwd.End()
		if err != nil {
			return false, fmt.Errorf("core: ingest move %q: %w", a.Dataset, err)
		}
		s.Obs.Count("core.ingest.rows", float64(len(a.Rows)))
		s.Obs.Count("core.ingest.forwarded", float64(forwarded))
	}
	s.ingestBatches++
	s.Obs.Count("core.ingest.batches", 1)
	if s.replanEvery > 0 && s.ingestBatches%s.replanEvery == 0 {
		if err := s.replanForIngest(ctx); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (s *System) datasetNamed(name string) *workload.Dataset {
	for _, ds := range s.Workload.Datasets {
		if ds.Name == name {
			return ds
		}
	}
	return nil
}

// replanForIngest re-runs similarity checking and placement with
// up-to-date information, then re-executes the movement plan — the live
// counterpart of RunDynamic's periodic replan. The planner reads the
// stores, so it sees every applied batch.
func (s *System) replanForIngest(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: ingest replan: %w", err)
	}
	opts := s.Opts
	opts.Obs = s.Obs
	span := s.Obs.StartSpan("ingest.replan")
	defer span.End()
	plan, err := placement.PlanScheme(s.Scheme, s.Cluster, s.Workload, opts)
	if err != nil {
		return fmt.Errorf("core: ingest replan: %w", err)
	}
	countDerived(s.Obs, plan)
	if _, err := plan.Execute(s.Cluster, stats.Split(s.Opts.Seed, int64(9000+s.ingestBatches))); err != nil {
		return fmt.Errorf("core: ingest replan move: %w", err)
	}
	s.plan = plan
	s.shares = planShares(plan, s.Cluster.N())
	s.ingestReplans++
	s.Obs.Count("core.ingest.replans", 1)
	span.Add(plan.CheckTime + plan.LPTime)
	return nil
}
