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
	// many queries (paper: every 5 queries).
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
		return fmt.Errorf("core: initial fraction %v out of (0,1]", c.InitialFraction)
	}
	if c.BatchFraction < 0 || c.BatchFraction > 1 {
		return fmt.Errorf("core: batch fraction %v out of [0,1]", c.BatchFraction)
	}
	if c.ReplanEvery <= 0 {
		return fmt.Errorf("core: replan interval must be positive, got %d", c.ReplanEvery)
	}
	if c.Queries <= 0 {
		return fmt.Errorf("core: dynamic run needs at least one query, got %d", c.Queries)
	}
	return nil
}

// DynamicReport summarizes a dynamic run. It marshals stably (fixed
// field order) and carries no memo or timing state, so two runs of one
// seed produce byte-identical reports at any pool width.
type DynamicReport struct {
	Scheme placement.SchemeID `json:"scheme"`
	// QCTs per query arrival, averaged over datasets.
	QCTs []float64 `json:"qcts"`
	// MeanQCT across all arrivals.
	MeanQCT float64 `json:"mean_qct_s"`
	// Replans counts placement recomputations.
	Replans int `json:"replans"`
	// BatchesDelivered counts batch insertions across datasets.
	BatchesDelivered int `json:"batches_delivered"`
}

// RunDynamic executes the §8.6 protocol on a fresh cluster: (1) the
// initial fraction of every dataset completes initial placement; (2) each
// arriving batch is pre-processed and transferred according to the current
// placement decision before the next query; (3) each query processes all
// currently available data; (4) every ReplanEvery queries the similarity
// checking and placement re-run with up-to-date information.
//
// The cluster passed in must be EMPTY of the workload's datasets: the
// runner controls data arrival. The context is honored at arrival
// boundaries (before each replan, each query round, each batch delivery)
// and at the engine's chunk boundaries below them.
func RunDynamic(ctx context.Context, c *engine.Cluster, w *workload.Workload, scheme placement.SchemeID,
	dyn DynamicConfig, opts placement.Options) (*DynamicReport, error) {
	if err := dyn.validate(); err != nil {
		return nil, err
	}
	for _, ds := range w.Datasets {
		for i := 0; i < c.N(); i++ {
			if len(c.Data[i].Records(ds.Name)) > 0 {
				return nil, fmt.Errorf("core: dynamic run needs an empty cluster, dataset %q present at site %d", ds.Name, i)
			}
		}
	}

	// Per-dataset, per-site batch cursors over the workload's rows.
	type cursor struct {
		rows []engine.KV
		pos  int
	}
	cursors := make(map[string][]*cursor, len(w.Datasets))
	for _, ds := range w.Datasets {
		cs := make([]*cursor, c.N())
		for i := 0; i < c.N() && i < len(ds.Rows); i++ {
			recs := make([]engine.KV, len(ds.Rows[i]))
			for r, row := range ds.Rows[i] {
				recs[r] = engine.KV{Key: workload.JoinKey(row.Coords), Val: row.Measure}
			}
			cs[i] = &cursor{rows: recs}
		}
		cursors[ds.Name] = cs
	}
	deliver := func(name string, frac float64) int {
		delivered := 0
		for i, cur := range cursors[name] {
			if cur == nil {
				continue
			}
			n := int(float64(len(cur.rows)) * frac)
			if cur.pos+n > len(cur.rows) {
				n = len(cur.rows) - cur.pos
			}
			if n <= 0 {
				continue
			}
			c.Data[i].Add(name, cur.rows[cur.pos:cur.pos+n]...)
			cur.pos += n
			delivered++
		}
		return delivered
	}

	// Dynamic mode replans and re-queries largely unchanged sites. What
	// both derive per site (the dominant view's cell column, the map
	// stage's executor layout) is memoized on the stores' contents and
	// lives as long as they do.

	// (1) Initial data and initial placement.
	for _, ds := range w.Datasets {
		deliver(ds.Name, dyn.InitialFraction)
	}
	plan, err := placement.PlanScheme(scheme, c, w, opts)
	if err != nil {
		return nil, fmt.Errorf("core: initial dynamic plan: %w", err)
	}
	countDerived(opts.Obs, plan)
	if _, err := plan.Execute(c, stats.Split(opts.Seed, 2001)); err != nil {
		return nil, err
	}

	rep := &DynamicReport{Scheme: scheme, Replans: 1}
	// moveShare[dataset][src] is the fraction of src's data the current
	// plan moved out, and its destination split — new batches follow the
	// same decision (§8.6 step 2).
	shares := planShares(plan, c.N())

	for qi := 0; qi < dyn.Queries; qi++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: dynamic arrival %d: %w", qi, err)
		}
		// (4) Periodic re-plan with up-to-date information.
		if qi > 0 && qi%dyn.ReplanEvery == 0 {
			plan, err = placement.PlanScheme(scheme, c, w, opts)
			if err != nil {
				return nil, fmt.Errorf("core: dynamic replan %d: %w", rep.Replans, err)
			}
			countDerived(opts.Obs, plan)
			if _, err := plan.Execute(c, stats.Split(opts.Seed, int64(3000+qi))); err != nil {
				return nil, err
			}
			shares = planShares(plan, c.N())
			rep.Replans++
		}

		// (3) The queries run concurrently on all currently available data.
		cfgs := make([]engine.JobConfig, len(w.Datasets))
		for i, ds := range w.Datasets {
			cfgs[i] = plan.JobConfigFor(ds.DominantQuery().Query)
		}
		results, err := c.RunConcurrent(ctx, cfgs)
		if err != nil {
			return nil, fmt.Errorf("core: dynamic query arrival %d: %w", qi, err)
		}
		var qctSum float64
		for _, res := range results {
			qctSum += res.QCT
		}
		rep.QCTs = append(rep.QCTs, qctSum/float64(len(results)))

		// (2) The next batch arrives and is transferred per the current
		// placement decision before the next query.
		if dyn.BatchFraction > 0 {
			for _, ds := range w.Datasets {
				before := snapshotSizes(c, ds.Name)
				if deliver(ds.Name, dyn.BatchFraction) > 0 {
					rep.BatchesDelivered++
					if _, err := moveBatchByShares(c, plan, ds.Name, before, shares[ds.Name]); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	rep.MeanQCT = stats.Mean(rep.QCTs)
	return rep, nil
}

// countDerived adds one planning round's content-memo lookups to the run's
// metrics.
func countDerived(col *obs.Collector, plan *placement.Plan) {
	col.Count(placement.CounterDerivedHits, float64(plan.DerivedHits))
	col.Count(placement.CounterDerivedMisses, float64(plan.DerivedMisses))
}

// planShares computes, per dataset and source site, the fraction of the
// site's pre-move data the plan shipped to each destination.
func planShares(plan *placement.Plan, n int) map[string][][]float64 {
	// Total pre-move input per dataset/site from the plan's stats.
	inputs := map[string][]float64{}
	for _, st := range plan.Stats {
		inputs[st.Name] = st.InputMB
	}
	out := map[string][][]float64{}
	for _, sp := range plan.Moves {
		m, ok := out[sp.Dataset]
		if !ok {
			m = make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
			}
			out[sp.Dataset] = m
		}
		in := inputs[sp.Dataset]
		if in == nil || in[sp.Src] <= 0 {
			continue
		}
		frac := sp.MB / in[sp.Src]
		if frac > 1 {
			frac = 1
		}
		m[sp.Src][sp.Dst] += frac
	}
	return out
}

func snapshotSizes(c *engine.Cluster, dataset string) []int {
	out := make([]int, c.N())
	for i := range out {
		out[i] = len(c.Data[i].Records(dataset))
	}
	return out
}

// moveBatchByShares forwards, from each site a batch just landed at, the
// plan's movement fraction of the arrived volume to each destination. The
// batch decides how many records leave; which ones is the dataset's
// mover's choice over the site's whole record set (engine.ApplyMoves), not
// over the batch — a similarity-aware scheme ships an older resident
// record whose cell combines at the destination before a just-arrived one
// whose cell the destination does not hold. This is how the reproduction
// reads §8.6 step 2: "transferred according to the current placement
// decision" fixes the per-link share, and the site then peels off its most
// combinable cells (§4.1); rows are not tagged by arrival. The dynamic
// golden report pins it, and it is why the state after a run of batches
// depends on how the records were grouped into batches. It returns how many
// records it forwarded.
func moveBatchByShares(c *engine.Cluster, plan *placement.Plan, dataset string, before []int, shares [][]float64) (int, error) {
	if shares == nil {
		return 0, nil
	}
	var specs []engine.MoveSpec
	for src := 0; src < c.N(); src++ {
		arrived := len(c.Data[src].Records(dataset)) - before[src]
		if arrived <= 0 {
			continue
		}
		for dst := 0; dst < c.N(); dst++ {
			if frac := shares[src][dst]; frac > 0 {
				mb := c.MB(int(float64(arrived) * frac))
				if mb > 0 {
					specs = append(specs, engine.MoveSpec{Dataset: dataset, Src: src, Dst: dst, MB: mb})
				}
			}
		}
	}
	if len(specs) == 0 {
		return 0, nil
	}
	res, err := c.ApplyMoves(specs, plan.MoverFor(dataset), stats.NewRand(int64(len(specs))))
	if err != nil {
		return 0, err
	}
	return res.Records, nil
}
