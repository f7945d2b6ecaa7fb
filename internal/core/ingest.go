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
// with up-to-date information, §8.6's periodic replan (0, the default,
// disables live replanning). Call before serving starts.
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
// system: every arrival is validated up front (returning
// ErrBadArrival-wrapped errors for unappliable batches), then each
// arrival's rows land in the arrival site's store and are forwarded
// along the current plan's movement shares (§8.6 step 2: a batch is
// "transferred according to the current placement decision"). Every
// SetReplanEvery batches the system replans, refreshing the plan the
// serving layer executes queries under. The same path serves bohrd's
// ingest and scripts the §8.6 experiment (experiments.RunDynamic).
//
// The batch commits or changes nothing: IngestBatch fails only before
// the first row lands (validation, a done ctx, a missing Prepare). A
// forward or replan failing after that keeps the plan and counts
// core.ingest.forward_errors or .replan_errors; the batch succeeds.
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
		s.Cluster.Data[a.Site].Add(a.Dataset, workload.Records(a.Rows)...)
		// New rows follow the current placement decision (§8.6 step 2).
		fwd := s.Obs.StartSpan("ingest.forward")
		forwarded, err := moveBatchByShares(s.Cluster, s.plan, a.Dataset, a.Site, len(a.Rows), s.shares[a.Dataset])
		fwd.End()
		if err != nil {
			s.Obs.Count("core.ingest.forward_errors", 1)
		}
		s.Obs.Count("core.ingest.rows", float64(len(a.Rows)))
		s.Obs.Count("core.ingest.forwarded", float64(forwarded))
	}
	s.ingestBatches++
	s.Obs.Count("core.ingest.batches", 1)
	if s.replanEvery <= 0 || s.ingestBatches%s.replanEvery != 0 {
		return false, nil
	}
	if err := s.replanForIngest(ctx); err != nil {
		s.Obs.Count("core.ingest.replan_errors", 1)
		return false, nil
	}
	return true, nil
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
// up-to-date information, then re-executes the movement plan (§8.6
// step 4). The planner reads the stores, so it sees every applied batch.
// On an error the plan stays, and so do moves made before it.
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
	s.Obs.Count(placement.CounterDerivedHits, float64(plan.DerivedHits))
	s.Obs.Count(placement.CounterDerivedMisses, float64(plan.DerivedMisses))
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

// planShares computes, per dataset and source site, the fraction of the
// site's pre-move data the plan shipped to each destination.
func planShares(plan *placement.Plan, n int) map[string][][]float64 {
	inputs := map[string][]float64{} // pre-move MB per dataset and site
	for _, st := range plan.Stats {
		inputs[st.Name] = st.InputMB
	}
	out := map[string][][]float64{}
	for _, sp := range plan.Moves {
		m := out[sp.Dataset]
		if m == nil {
			m = make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
			}
			out[sp.Dataset] = m
		}
		if in := inputs[sp.Dataset]; in != nil && in[sp.Src] > 0 {
			m[sp.Src][sp.Dst] += min(sp.MB/in[sp.Src], 1)
		}
	}
	return out
}

// moveBatchByShares forwards, from the site arrived records just landed
// at, the plan's share of the arrived volume along each link, and returns
// how many records it forwarded. The batch sets how many records leave;
// the dataset's mover picks which from the site's whole record set, so a
// resident record whose cell combines at the destination leaves before a
// just-arrived one whose cell does not (§8.6 step 2 read as fixing the
// per-link share: DESIGN.md §10, "What a batch forwards").
func moveBatchByShares(c *engine.Cluster, plan *placement.Plan, dataset string, site, arrived int, shares [][]float64) (int, error) {
	if shares == nil {
		return 0, nil
	}
	var specs []engine.MoveSpec
	for dst, frac := range shares[site] {
		if frac > 0 {
			if mb := c.MB(int(float64(arrived) * frac)); mb > 0 {
				specs = append(specs, engine.MoveSpec{Dataset: dataset, Src: site, Dst: dst, MB: mb})
			}
		}
	}
	if len(specs) == 0 {
		return 0, nil
	}
	// Seeding costs more than a small forward: only a mover that draws pays.
	res, err := c.ApplyMoves(specs, plan.MoverFor(dataset), stats.NewLazyRand(int64(len(specs))))
	if err != nil {
		return 0, err
	}
	return res.Records, nil
}
