// Package core ties the Bohr reproduction together: a System couples a
// geo-distributed cluster with a workload and a placement scheme, and
// drives the paper's pipeline — similarity checking and (joint) data/task
// placement (package placement, which probes the dimension cubes the
// stores' cell columns already count), offline data movement in the
// query lag, and query execution with runtime RDD similarity. It also
// implements live ingest into a prepared system (ingest.go): each batch is
// forwarded along the current plan and placement re-runs every few
// batches — §8.6's highly-dynamic-dataset mode, which bohrd serves and
// the experiments package scripts between recurring queries. A System
// holds one copy of a site's data: the cluster's engine.Stores.
package core

import (
	"context"
	"fmt"

	"bohr/internal/engine"
	"bohr/internal/obs"
	"bohr/internal/placement"
	"bohr/internal/stats"
	"bohr/internal/workload"
)

// System is one deployed configuration: cluster + workload + scheme.
type System struct {
	Cluster  *engine.Cluster
	Workload *workload.Workload
	Scheme   placement.SchemeID
	Opts     placement.Options
	// Obs collects phase spans and metrics for every pipeline stage the
	// system drives. New seeds it from Opts.Obs; set it before Prepare to
	// attach a collector. Nil (the default) disables collection at no cost.
	Obs *obs.Collector

	plan    *placement.Plan
	moved   *engine.MoveResult
	prepRep *PrepareReport
	lastRun *RunReport

	// Live-ingest state (see ingest.go): the current plan's movement
	// shares for forwarding new batches and the replan cadence counters.
	shares        map[string][][]float64
	replanEvery   int
	ingestBatches int
	ingestReplans int
}

// New validates and assembles a system. The cluster must already hold the
// workload's data (use workload.Populate) — New does not load data so that
// callers can share one populated snapshot across schemes via Clone.
func New(c *engine.Cluster, w *workload.Workload, scheme placement.SchemeID, opts placement.Options) (*System, error) {
	if c == nil || w == nil {
		return nil, fmt.Errorf("core: system needs a cluster and a workload")
	}
	for _, ds := range w.Datasets {
		found := false
		for i := 0; i < c.N() && !found; i++ {
			found = c.Data[i].Store(ds.Name).Len() > 0
		}
		if !found {
			return nil, fmt.Errorf("core: dataset %q has no data in the cluster; call workload.Populate first", ds.Name)
		}
	}
	return &System{Cluster: c, Workload: w, Scheme: scheme, Opts: opts, Obs: opts.Obs}, nil
}

// PrepareReport summarizes the offline phase.
type PrepareReport struct {
	// MovedMB is the total volume moved across the WAN in the lag.
	MovedMB float64 `json:"moved_mb"`
	// MoveDuration is the WAN time the movement took; it must fit in Lag.
	MoveDuration float64 `json:"move_duration_s"`
	// CheckTime is the modeled probe/similarity-checking time (offline).
	CheckTime float64 `json:"check_time_s"`
	// LPTime is the modeled optimizer time (included in QCT later).
	LPTime float64 `json:"lp_time_s"`
	// Moves is the number of movement specs executed.
	Moves int `json:"moves"`
}

// Prepare runs the offline pipeline: similarity checking via probes,
// placement planning, and data movement. It mutates the cluster's data
// placement. Prepare is idempotent: a second call is a no-op returning the
// cached report of the first. The context is honored at phase boundaries
// (before planning, before movement); a cancelled Prepare leaves the
// cluster's placement untouched.
func (s *System) Prepare(ctx context.Context) (*PrepareReport, error) {
	if s.plan != nil {
		return s.prepRep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare: %w", err)
	}
	opts := s.Opts
	opts.Obs = s.Obs
	// Log the fault schedule onto the run's event timeline up front, in
	// schedule order, so reports carry the injected faults.
	if f := opts.Faults; f != nil {
		for _, e := range f.Events {
			detail := fmt.Sprintf("end=%gs", e.End)
			if e.Factor != 0 {
				detail += fmt.Sprintf(" factor=%g", e.Factor)
			}
			s.Obs.RecordEvent(obs.Event{T: e.Start, Kind: e.Kind.String(), Site: e.Site, Detail: detail})
		}
	}
	// Note: the pool width is deliberately NOT recorded in the metrics
	// snapshot — reports must stay byte-identical across widths, which
	// is the determinism gate `make check` enforces.
	prep := s.Obs.StartSpan("prepare")
	defer prep.End()
	plan, err := placement.PlanScheme(s.Scheme, s.Cluster, s.Workload, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare move: %w", err)
	}
	moved, err := plan.Execute(s.Cluster, stats.Split(s.Opts.Seed, 1001))
	if err != nil {
		return nil, err
	}
	s.plan = plan
	s.moved = moved
	// Newly ingested batches follow the plan's movement decision until
	// the next replan (§8.6 step 2), so remember its per-site shares.
	s.shares = planShares(plan, s.Cluster.N())
	rep := &PrepareReport{
		MoveDuration: moved.Duration,
		CheckTime:    plan.CheckTime,
		LPTime:       plan.LPTime,
		Moves:        len(plan.Moves),
	}
	for _, tr := range moved.Transfers {
		rep.MovedMB += tr.MB
	}
	prep.Add(rep.CheckTime + rep.LPTime + rep.MoveDuration)
	s.prepRep = rep
	return rep, nil
}

// Plan exposes the computed plan (nil before Prepare).
func (s *System) Plan() *placement.Plan { return s.plan }

// RunQuery executes one query under the prepared plan. The context is
// honored at the engine's chunk boundaries, so a cancelled query stops
// within one stage without perturbing later queries' results.
func (s *System) RunQuery(ctx context.Context, q engine.Query) (*engine.RunResult, error) {
	return s.RunQueryObs(ctx, q, s.Obs)
}

// RunQueryObs is RunQuery recording spans and metrics into the given
// collector instead of the system's own. The serving layer hands each
// query a fresh collector so its trace can be retained per query (the
// flight recorder's slow-query capture) instead of accreting forever
// under the daemon's long-lived root span; a nil collector runs the
// query unobserved.
func (s *System) RunQueryObs(ctx context.Context, q engine.Query, col *obs.Collector) (*engine.RunResult, error) {
	if s.plan == nil {
		return nil, fmt.Errorf("core: Prepare must run before queries")
	}
	cfg := s.plan.JobConfigFor(q)
	cfg.Obs = col
	return s.Cluster.Run(ctx, cfg)
}

// QueryReport is the outcome of one query execution.
type QueryReport struct {
	Dataset string  `json:"dataset"`
	Query   string  `json:"query"`
	QCT     float64 `json:"qct_s"`
	// IntermediateMBPerSite is the post-combiner volume per site.
	IntermediateMBPerSite []float64 `json:"intermediate_mb_per_site"`
	ShuffleMB             float64   `json:"shuffle_mb"`
}

// RunReport aggregates a full workload execution.
type RunReport struct {
	Scheme  placement.SchemeID `json:"scheme"`
	Queries []QueryReport      `json:"queries"`
	// MeanQCT is the average query completion time (the paper's headline
	// metric).
	MeanQCT float64 `json:"mean_qct_s"`
	// IntermediateMBPerSite sums per-site intermediate volumes across
	// queries.
	IntermediateMBPerSite []float64 `json:"intermediate_mb_per_site"`
	TotalShuffleMB        float64   `json:"total_shuffle_mb"`
}

// RunAll executes every dataset's dominant recurring query — concurrently,
// the way recurring queries over many datasets actually arrive and the way
// §5's objective models them (every dataset's shuffle shares the WAN) —
// and aggregates the metrics the paper reports.
func (s *System) RunAll(ctx context.Context) (*RunReport, error) {
	if s.plan == nil {
		return nil, fmt.Errorf("core: Prepare must run before queries")
	}
	rep := &RunReport{
		Scheme:                s.Scheme,
		IntermediateMBPerSite: make([]float64, s.Cluster.N()),
	}
	cfgs := make([]engine.JobConfig, len(s.Workload.Datasets))
	for i, ds := range s.Workload.Datasets {
		cfgs[i] = s.plan.JobConfigFor(ds.DominantQuery().Query)
		cfgs[i].Obs = s.Obs
		cfgs[i].FaultClock = s.plan.Lag() // moves occupied [0, Lag)
	}
	run := s.Obs.StartSpan("run")
	results, err := s.Cluster.RunConcurrent(ctx, cfgs)
	run.End()
	if err != nil {
		return nil, fmt.Errorf("core: concurrent run: %w", err)
	}
	var qctSum float64
	for i, res := range results {
		ds := s.Workload.Datasets[i]
		rep.Queries = append(rep.Queries, QueryReport{
			Dataset:               ds.Name,
			Query:                 cfgs[i].Query.Name,
			QCT:                   res.QCT,
			IntermediateMBPerSite: res.IntermediateMBPerSite,
			ShuffleMB:             res.TotalShuffleMB,
		})
		qctSum += res.QCT
		for j, mb := range res.IntermediateMBPerSite {
			rep.IntermediateMBPerSite[j] += mb
		}
		rep.TotalShuffleMB += res.TotalShuffleMB
	}
	if len(rep.Queries) > 0 {
		rep.MeanQCT = qctSum / float64(len(rep.Queries))
	}
	// The run stage's modeled span time is the concurrent makespan: the
	// slowest query's completion time.
	if s.Obs != nil {
		var makespan float64
		for _, res := range results {
			if res.QCT > makespan {
				makespan = res.QCT
			}
		}
		run.Add(makespan)
	}
	s.lastRun = rep
	return rep, nil
}

// VanillaBaseline runs the workload in-place on plain Spark semantics —
// no movement, no cubes, bandwidth-proportional task placement, random
// partition assignment — and returns the per-site intermediate volumes.
// The paper's "data reduction ratio" measures savings against this
// baseline.
func VanillaBaseline(ctx context.Context, c *engine.Cluster, w *workload.Workload) ([]float64, error) {
	inter := make([]float64, c.N())
	cfgs := make([]engine.JobConfig, len(w.Datasets))
	for i, ds := range w.Datasets {
		cfgs[i] = engine.JobConfig{Query: ds.DominantQuery().Query}
	}
	results, err := c.RunConcurrent(ctx, cfgs)
	if err != nil {
		return nil, fmt.Errorf("core: vanilla baseline: %w", err)
	}
	for _, res := range results {
		for i, mb := range res.IntermediateMBPerSite {
			inter[i] += mb
		}
	}
	return inter, nil
}

// ReductionUndefined flags a data-reduction entry whose vanilla baseline
// volume is zero while the scheme DID produce intermediate data there: the
// ratio is -∞ in the limit, and reporting 0 (as earlier versions did)
// silently hid that the scheme regressed the site. Consumers should treat
// entries ≤ ReductionUndefined as "worse than an empty baseline", not as
// a percentage.
const ReductionUndefined = -1e9

// DataReduction converts scheme vs vanilla intermediate volumes into the
// paper's per-site data reduction ratio (%): positive means the scheme
// produced less intermediate data than in-place processing; negative (as
// Iridium shows at some sites in Figure 8) means more. A site where the
// vanilla baseline is zero yields 0 when the scheme also produced nothing
// and ReductionUndefined when it produced data out of nowhere.
func DataReduction(vanilla, scheme []float64) []float64 {
	out := make([]float64, len(vanilla))
	for i := range vanilla {
		if vanilla[i] <= 0 {
			if scheme[i] > 0 {
				out[i] = ReductionUndefined
			} else {
				out[i] = 0
			}
			continue
		}
		out[i] = 100 * (1 - scheme[i]/vanilla[i])
	}
	return out
}
