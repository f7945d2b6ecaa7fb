// Package placement implements the six schemes the paper compares (§8.1):
// Iridium, Iridium-C, Bohr-Sim, Bohr-Joint, Bohr-RDD and full Bohr. Each
// scheme turns a cluster snapshot plus workload knowledge into a Plan —
// data movement specs, reduce-task fractions, the record-selection policy
// (random vs similarity-aware), the executor assigner, and the modeled
// overheads the paper includes in or excludes from QCT.
package placement

import (
	"fmt"
	"slices"
	"sync"

	"bohr/internal/engine"
	"bohr/internal/parallel"
	"bohr/internal/similarity"
	"bohr/internal/workload"
)

// Modeled similarity-checking costs (§8.5, Tables 2 and 3): scoring one
// probe record against a site's dimension cube, and sorting/clustering a
// cube cell during pre-processing. Calibrated so that defaults land in the
// ranges the paper reports.
const (
	probeScoreCost = 1.1e-3 // seconds per probe record × remote site × dim
	cellSortCost   = 1.0e-6 // seconds per cube cell × dim during preparation
)

// DatasetStats is the per-dataset planner input distilled from probes and
// profiling: everything §5's LP consumes.
type DatasetStats struct {
	Name string
	// InputMB[i] is I_i in MB.
	InputMB []float64
	// Reduction is R: intermediate records per input record, profiled from
	// the dominant recurring query.
	Reduction float64
	// SelfSim[i] is S_i on the dominant query type's dimension cube.
	SelfSim []float64
	// CrossSim[i][j] is the probe score S_{i,j}.
	CrossSim [][]float64
	// Queries is the dataset's total recurring query count (its planning
	// weight in the sequential heuristic).
	Queries int
	// DominantView is the projection movement optimizes for: the dominant
	// query type's attribute set.
	DominantView engine.View
	// CheckTime is the modeled pre-processing similarity-checking time
	// (probing happens before the query arrives, so it is NOT in QCT).
	CheckTime float64
	// NumDims is the dataset's schema width (Table 2 reports it).
	NumDims int
	// CubeCells is the total dimension-cube cell count across sites that
	// similarity checking touched (the cost basis of CheckTime).
	CubeCells int
	// ProbeShare is the dominant query type's share of the probe budget:
	// the number of destination cells a source knows when selecting
	// records to move.
	ProbeShare int
}

// Counter names of the planner's lookups of state memoized on store
// contents (engine.Store.Cells): the dominant-view cell column each site's
// probes and volume profile read. Dynamic runs report them. Both are
// deterministic at any pool width: exactly one miss per content × key,
// however many goroutines ask first.
const (
	CounterDerivedHits   = "placement.derived.hits"
	CounterDerivedMisses = "placement.derived.misses"
)

// inputs is a dataset's planner inputs on one set of its site contents,
// memoized on the cluster lineage (engine.Planned) for every plan on those
// contents: the statistics, which each plan copies, the counted profile,
// and the dry runs made on it.
type inputs struct {
	st   *DatasetStats
	prof *engine.Profile
	mu   sync.Mutex
	dry  []dryRun
}

// inputsKey is what inputs are a function of besides the contents; on one
// lineage, a query name is one query.
type inputsKey struct {
	query                string
	view                 engine.View
	share, queries, dims int
}

// datasetProfile is a plan's profile on a dataset's inputs.
type datasetProfile struct {
	prof *engine.Profile
	in   *inputs
}

// computeStats returns the dataset's planner statistics, a private copy, and
// its profile for the round's profiler, from the memoized inputs.
func computeStats(c *engine.Cluster, ds *workload.Dataset, probeK int) (*DatasetStats, datasetProfile, error) {
	if probeK <= 0 {
		return nil, datasetProfile{}, fmt.Errorf("placement: probe budget must be positive, got %d", probeK)
	}
	dom := ds.DominantQuery()
	key := inputsKey{dom.Query.Name, dom.View, similarity.ProbeShare(probeK, dom.Count, ds.TotalQueries()), ds.TotalQueries(), ds.Schema.NumDims()}
	in, hit, err := engine.Planned(c, ds.Name, key, func() (*inputs, error) { return buildInputs(c, ds, key.share) })
	if err != nil {
		return nil, datasetProfile{}, err
	}
	prof := in.prof
	if hit {
		prof = prof.On(c)
	}
	return in.st.clone(), datasetProfile{prof, in}, nil
}

// buildInputs builds planner statistics for one dataset from the cluster
// snapshot: per-site dimension cubes for the dominant query type, probe
// exchange (top-k cells weighted across query types), and map-expansion
// profiling of the dominant query. A site's cube is its store's cell column
// in the dominant view, memoized on the store's content; every per-site
// result is independent and merged in site order, so the statistics are
// identical at every pool width and memo state.
func buildInputs(c *engine.Cluster, ds *workload.Dataset, domShare int) (*inputs, error) {
	n := c.N()
	dom := ds.DominantQuery()

	// Each site's dimension cube is the cell column the profile counts on and
	// the mover selects from: the stored records counted by their projection
	// onto the dominant query type's attributes (§4.1).
	prof := engine.NewProfile(c, ds.Name, dom.Query.Map, dom.View)
	cubes, err := prof.Cells()
	if err != nil {
		return nil, fmt.Errorf("placement: profiling %q: %w", ds.Name, err)
	}
	var totalCells int
	for _, cube := range cubes {
		totalCells += cube.Distinct()
	}

	cross, err := similarity.CrossSiteMatrix(ds.Name, cubes, domShare)
	if err != nil {
		return nil, err
	}
	st := &DatasetStats{
		Name:         ds.Name,
		InputMB:      c.InputMB(ds.Name),
		SelfSim:      make([]float64, n),
		CrossSim:     cross,
		Queries:      ds.TotalQueries(),
		DominantView: dom.View,
		NumDims:      ds.Schema.NumDims(),
		CubeCells:    totalCells,
		ProbeShare:   domShare,
	}
	st.Reduction = profileReduction(c, ds.Name, dom.Query)

	// Probe scores measure *ideal* key overlap; the realized combiner
	// reduction is lower because records split across executors and only
	// co-located duplicates merge. The prototype estimates realized
	// reduction from the previous run of the recurring query (§7); we count
	// one map+combine per site (engine.Profile) and scale the probe
	// similarities to realized combiner efficiency.
	counts, err := prof.Counts(nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("placement: profiling %q: %w", ds.Name, err)
	}
	for i := 0; i < n; i++ {
		ideal := cross[i][i]
		realized := ideal
		if recs := c.Data[i].Store(ds.Name).Len(); recs > 0 && st.Reduction > 0 {
			realized = min(max(1-float64(counts[i])/(float64(recs)*st.Reduction), 0), 1)
		}
		st.SelfSim[i] = realized
		kappa := 1.0
		if ideal > 1e-9 {
			kappa = realized / ideal
			if kappa > 1 {
				kappa = 1
			}
		}
		for k := 0; k < n; k++ {
			if k != i {
				cross[k][i] *= kappa // data arriving at i combines at realized efficiency
			}
		}
		cross[i][i] = realized
	}
	dims := float64(st.NumDims)
	st.CheckTime = float64(totalCells)*dims*cellSortCost +
		float64(domShare*(n-1))*dims*probeScoreCost
	return &inputs{st: st, prof: prof}, nil
}

// clone returns a copy of the statistics with private InputMB, SelfSim and
// CrossSim: a joint plan calibrates its CrossSim in place.
func (st *DatasetStats) clone() *DatasetStats {
	out := *st
	out.InputMB = slices.Clone(st.InputMB)
	out.SelfSim = slices.Clone(st.SelfSim)
	out.CrossSim = make([][]float64, len(st.CrossSim))
	for i, row := range st.CrossSim {
		out.CrossSim[i] = slices.Clone(row)
	}
	return &out
}

// profileReduction estimates R, the map-stage expansion ratio, by applying
// the query's map function to a sample of the stored records — the paper
// profiles R from the previous run of the recurring query (§7).
func profileReduction(c *engine.Cluster, dataset string, q engine.Query) float64 {
	const sample = 256
	in, out := 0, 0
	count := func(string, float64) { out++ }
	for i := 0; i < c.N() && in < sample; i++ {
		for _, rec := range c.Data[i].Sample(dataset, sample-in) {
			in++
			if q.Map == nil {
				out++
				continue
			}
			q.Map(rec, count)
		}
	}
	if in == 0 {
		return 1
	}
	return float64(out) / float64(in)
}

// ComputeAllStats computes DatasetStats for every dataset of a workload,
// fanned out over the worker pool: datasets only read the shared cluster
// snapshot, so they are independent.
func ComputeAllStats(c *engine.Cluster, w *workload.Workload, probeK int) ([]*DatasetStats, error) {
	all, _, err := computeAllStats(c, w, probeK)
	return all, err
}

func computeAllStats(c *engine.Cluster, w *workload.Workload, probeK int) ([]*DatasetStats, []datasetProfile, error) {
	profs := make([]datasetProfile, len(w.Datasets))
	all, err := parallel.MapOrdered(0, len(w.Datasets), func(i int) (st *DatasetStats, err error) {
		st, profs[i], err = computeStats(c, w.Datasets[i], probeK)
		return st, err
	})
	return all, profs, err
}
