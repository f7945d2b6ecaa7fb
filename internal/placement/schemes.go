package placement

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"bohr/internal/engine"
	"bohr/internal/faults"
	"bohr/internal/lp"
	"bohr/internal/obs"
	"bohr/internal/rdd"
	"bohr/internal/stats"
	"bohr/internal/wan"
	"bohr/internal/workload"
)

// SchemeID identifies one of the compared systems (§8.1).
type SchemeID int

// The six schemes of the evaluation.
const (
	Iridium SchemeID = iota
	IridiumC
	BohrSim
	BohrJoint
	BohrRDD
	Bohr
)

func (s SchemeID) String() string {
	switch s {
	case Iridium:
		return "Iridium"
	case IridiumC:
		return "Iridium-C"
	case BohrSim:
		return "Bohr-Sim"
	case BohrJoint:
		return "Bohr-Joint"
	case BohrRDD:
		return "Bohr-RDD"
	case Bohr:
		return "Bohr"
	}
	return "unknown"
}

// AllSchemes lists the schemes in the paper's figure order.
func AllSchemes() []SchemeID {
	return []SchemeID{Iridium, IridiumC, BohrSim, BohrJoint, BohrRDD, Bohr}
}

// MarshalJSON encodes the scheme by display name, so reports stay readable
// and stable even if the internal iota order ever changes.
func (s SchemeID) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a scheme display name.
func (s *SchemeID) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, id := range AllSchemes() {
		if id.String() == name {
			*s = id
			return nil
		}
	}
	return fmt.Errorf("placement: unknown scheme %q", name)
}

// usesCubes: every scheme except plain Iridium stores data in OLAP cubes.
func (s SchemeID) usesCubes() bool { return s != Iridium }

// usesSimilarity: the Bohr family moves similar records; Iridium moves
// random ones.
func (s SchemeID) usesSimilarity() bool { return s >= BohrSim }

// usesJointLP: Bohr-Joint and full Bohr solve §5's joint LP; the others
// run the sequential heuristic plus a separate task-placement solve.
func (s SchemeID) usesJointLP() bool { return s == BohrJoint || s == Bohr }

// usesRDD: Bohr-RDD and full Bohr cluster RDD partitions at runtime.
func (s SchemeID) usesRDD() bool { return s == BohrRDD || s == Bohr }

// incomingInflation is the conservative factor on un-combined incoming
// volume: moved records land in fresh partitions and split across
// executors, so realized combining is worse than probe-ideal.
const incomingInflation = 1.4

// transferSummaryCells is the size of the destination cell summary a
// source fetches when executing a movement — a handshake exchange, much
// larger than a planning probe but still a summary.
const transferSummaryCells = 500

// lpPivotCost converts simplex pivot counts into modeled solve seconds so
// Table 5's LP time is machine-independent and included in QCT the way the
// paper includes it.
const lpPivotCost = 3e-4

// Options configures planning.
type Options struct {
	// Lag is T, the time between recurring query arrivals (s).
	Lag float64
	// ProbeK is the total probe record budget per dataset (default 30).
	ProbeK int
	// Seed drives random record selection for similarity-agnostic moves.
	Seed int64
	// PaperObjective forwards to lp.PlacementInput: incoming moved data
	// combines at the destination's own rate (the literal Eq. (1)) instead
	// of the pairwise probe rate.
	PaperObjective bool
	// DisableCalibration skips the profiled re-solve loop of the joint
	// planner (ablation knob).
	DisableCalibration bool
	// Faults is an optional fault schedule. The planner consumes the
	// degraded bandwidth view it implies (sites dead at query start are
	// demoted to epsilon capacity so the LP re-solves around them), data
	// moves drain through fault-scaled links, and the engine applies the
	// schedule to map/shuffle/reduce in modeled time.
	Faults *faults.Schedule
	// Obs optionally collects planning phase spans (probes, lp, calibrate,
	// move) and metrics. Nil disables collection at no cost.
	Obs *obs.Collector
	// lpMaxPivots caps simplex pivots per LP phase (0 = solver default);
	// the package's tests set it to force a stall. A joint LP that stalls
	// at the cap degrades to the no-move plan and a task LP that stalls
	// degrades to uplink-proportional reduce fractions; both increment
	// the lp.stalled counter on Obs instead of failing the planning round.
	lpMaxPivots int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Lag <= 0 {
		o.Lag = 30
	}
	if o.ProbeK <= 0 {
		o.ProbeK = 30
	}
	return o
}

// Plan is a scheme's complete decision.
type Plan struct {
	Scheme SchemeID
	// Moves are the data movements to execute in the lag.
	Moves []engine.MoveSpec
	// TaskFrac is r, the reduce-task fractions.
	TaskFrac []float64
	// movers maps dataset name → record-selection policy.
	movers map[string]engine.Mover
	// Assigner is the partition→executor policy (nil = round robin).
	Assigner engine.Assigner
	// UseCubes reports whether queries read OLAP cubes (map-cost scale).
	UseCubes bool
	// LPTime is the modeled optimizer time, included in QCT (§8.5).
	LPTime float64
	// CheckTime is the modeled pre-processing similarity-checking time,
	// NOT included in QCT (probing precedes query arrival).
	CheckTime float64
	// Stats are the planner inputs, retained for reporting: the plan's own
	// copies, so after a joint plan CrossSim holds the calibrated values.
	Stats []*DatasetStats
	// DerivedHits and DerivedMisses count this planning round's lookups of
	// state memoized on store contents (CounterDerivedHits/Misses).
	DerivedHits, DerivedMisses int
	// obs is the collector the plan was made under (from Options.Obs);
	// Execute reports the move span and WAN metrics to it.
	obs *obs.Collector
	// faults is the schedule the plan was made under (from
	// Options.Faults); Execute drains moves through fault-scaled links
	// and JobConfigFor forwards it to the engine. The profiler counts
	// volumes, which no fault changes.
	faults *faults.Schedule
	// lag is the Options.Lag the plan was made for, after defaults.
	lag float64
}

// Lag is the lag T the plan was made for: its moves occupy [0, Lag) and
// the recurring queries start at Lag on the fault timeline.
func (p *Plan) Lag() float64 { return p.lag }

// UseRandomMovers replaces every dataset's record-selection policy with
// the similarity-agnostic random mover — the "mover only" ablation that
// isolates how much of Bohr's gain comes from choosing WHICH records move.
func (p *Plan) UseRandomMovers() {
	for name := range p.movers {
		p.movers[name] = engine.RandomMover{}
	}
}

// MoverFor returns the record-selection policy for a dataset.
func (p *Plan) MoverFor(dataset string) engine.Mover {
	if m, ok := p.movers[dataset]; ok {
		return m
	}
	return engine.RandomMover{}
}

// JobConfigFor builds the engine JobConfig to run a query under this plan.
// The LP is solved once per placement round and serves every dataset's
// recurring query (§8.5: "the LP can be used for multiple iterations"),
// so its modeled time is amortized across the datasets it planned.
func (p *Plan) JobConfigFor(q engine.Query) engine.JobConfig {
	lpShare := p.LPTime
	if len(p.Stats) > 1 {
		lpShare /= float64(len(p.Stats))
	}
	cfg := engine.JobConfig{
		Query:    q,
		TaskFrac: p.TaskFrac,
		Assigner: p.Assigner,
		ExtraQCT: lpShare,
		Faults:   p.faults,
	}
	// Cube-backed schemes scan pre-aggregated cells rather than raw rows
	// (the Iridium-C gain of §8.2).
	cfg.CubeInput = p.UseCubes
	return cfg
}

// Execute applies the plan's data movements to the cluster, dataset by
// dataset with each dataset's mover, and returns the aggregate result.
func (p *Plan) Execute(c *engine.Cluster, seed int64) (*engine.MoveResult, error) {
	rng := stats.NewRand(seed)
	agg := &engine.MoveResult{}
	order, groups := byDataset(p.Moves)
	sp := p.obs.StartSpan("move")
	for _, name := range order {
		res, err := c.ApplyMoves(groups[name], p.MoverFor(name), rng)
		if err != nil {
			return nil, fmt.Errorf("placement: executing %s moves: %w", name, err)
		}
		agg.Records += res.Records
		agg.Transfers = append(agg.Transfers, res.Transfers...)
	}
	// Moves occupy [0, Lag) on the fault timeline, so they drain from
	// t = 0 through whatever link faults are active then.
	agg.Duration = c.Top.Simulate(agg.Transfers, p.faults).Makespan
	sp.Add(agg.Duration)
	sp.End()
	p.obs.Count("engine.records.moved", float64(agg.Records))
	wan.RecordFlows(p.obs, c.Top, "move", agg.Transfers)
	return agg, nil
}

// byDataset groups moves by dataset in order of first appearance, the
// order Execute and the profiler draw from their one rng in.
func byDataset(moves []engine.MoveSpec) (order []string, groups map[string][]engine.MoveSpec) {
	groups = map[string][]engine.MoveSpec{}
	for _, sp := range moves {
		if _, ok := groups[sp.Dataset]; !ok {
			order = append(order, sp.Dataset)
		}
		groups[sp.Dataset] = append(groups[sp.Dataset], sp)
	}
	return order, groups
}

// PlanScheme computes a scheme's plan for the workload on the given
// cluster snapshot (pre-movement).
func PlanScheme(id SchemeID, c *engine.Cluster, w *workload.Workload, opts Options) (*Plan, error) {
	plan, _, err := planScheme(id, c, w, opts)
	return plan, err
}

// planScheme is PlanScheme, also returning the profiler it planned with.
func planScheme(id SchemeID, c *engine.Cluster, w *workload.Workload, opts Options) (*Plan, *profiler, error) {
	opts = opts.withDefaults()
	// Stores and the profiler's columns are addressed by dataset name.
	if err := w.Validate(); err != nil {
		return nil, nil, err
	}
	// What the planner believes the WAN looks like: the truth, or the
	// probed view a fault schedule implies at the start of the query
	// window (t = Lag).
	planTop := faults.PlannerView(c.Top, opts.Faults, opts.Lag)
	probes := opts.Obs.StartSpan("probes")
	allStats, profiles, err := computeAllStats(c, w, opts.ProbeK)
	if err != nil {
		probes.End()
		return nil, nil, err
	}
	n := len(c.Top.Sites)
	for _, st := range allStats {
		opts.Obs.Count("probe.records", float64(st.ProbeShare*(n-1)))
		opts.Obs.Count("probe.bytes", c.MB(st.ProbeShare*(n-1))*1e6)
		opts.Obs.Count("cube.cells", float64(st.CubeCells))
	}
	plan := &Plan{
		Scheme:   id,
		UseCubes: id.usesCubes(),
		movers:   map[string]engine.Mover{},
		Stats:    allStats,
		obs:      opts.Obs,
		faults:   opts.Faults,
		lag:      opts.Lag,
	}
	for _, st := range allStats {
		if id.usesSimilarity() {
			// Record selection happens at transfer time, when the source
			// reads a larger cell summary of the destination (its top
			// cells, the handshake of §4.2); the tiny planning probes only
			// bound the LP's similarity estimates.
			plan.movers[st.Name] = engine.SimilarMover{View: st.DominantView, DstTopK: transferSummaryCells}
			plan.CheckTime += st.CheckTime
		} else {
			plan.movers[st.Name] = engine.RandomMover{}
		}
	}
	probes.Add(plan.CheckTime)
	probes.End()

	lpSpan := opts.Obs.StartSpan("lp")
	defer lpSpan.End()
	in := buildLPInput(planTop, len(c.Top.Sites), allStats, opts, id)
	prof := &profiler{c: c, plan: plan, seed: opts.Seed, profiles: profiles}
	if id.usesJointLP() {
		// The joint LP's volume predictions are calibrated against profiled
		// volumes (the recurring-query methodology of §7: the previous run
		// reveals actual intermediate sizes): solve, count what map+combine
		// would produce after the moves, scale the incoming-similarity
		// estimates by the observed error, re-solve.
		var moves []engine.MoveSpec
		lpStalled := false
		calibrationRounds := 3
		if opts.DisableCalibration {
			calibrationRounds = 1
		}
		for iter := 0; iter < calibrationRounds; iter++ {
			sol, err := lp.SolvePlacement(in)
			if errors.Is(err, lp.ErrStalled) {
				// The solve hit the pivot cap, so its movement tensor is
				// untrusted; fall back to not moving anything rather than
				// executing a half-optimized plan.
				opts.Obs.Count("lp.stalled", 1)
				moves = nil
				lpStalled = true
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("placement: joint LP: %w", err)
			}
			plan.LPTime += float64(sol.PivotCount) * lpPivotCost
			moves = tensorToMoves(allStats, sol.Move)
			if iter == calibrationRounds-1 {
				break
			}
			fReal, err := prof.volumes(moves)
			if err != nil {
				return nil, nil, err
			}
			opts.Obs.Count("placement.calibration.rounds", 1)
			lpSpan.Child("calibrate")
			if !calibrateIncoming(in, allStats, sol.Move, fReal) {
				break // predictions already match
			}
		}
		// Keep the better of the LP plan and the similarity heuristic,
		// judged on profiled realized volumes — the controller never
		// deploys a joint plan that its own previous-run profiling says
		// is worse than the simple heuristic. A stalled solve skips the
		// comparison: the fallback is the conservative no-move plan.
		if !lpStalled {
			heur := sequentialHeuristic(planTop, allStats, opts, true)
			tLP, err := prof.plannedTime(planTop, moves)
			if err != nil {
				return nil, nil, err
			}
			tHeur, err := prof.plannedTime(planTop, heur)
			if err != nil {
				return nil, nil, err
			}
			if tHeur < tLP {
				moves = heur
			}
		}
		plan.Moves = moves
	} else {
		plan.Moves = sequentialHeuristic(planTop, allStats, opts, id.usesSimilarity())
	}

	// Task placement for every scheme is solved against the *realized*
	// post-move shuffle volumes of a profile — exactly what a recurring
	// query's previous run provides in the prototype (§7).
	fReal, err := prof.volumes(plan.Moves)
	if err != nil {
		return nil, nil, err
	}
	frac, _, pivots, err := lp.SolveTaskPlacementVolumes(fReal, planTop.Uplinks(), planTop.Downlinks(), opts.lpMaxPivots)
	if errors.Is(err, lp.ErrStalled) {
		// Degrade to the bandwidth-proportional prior the alternating
		// solver itself starts from; the plan stays executable.
		opts.Obs.Count("lp.stalled", 1)
		frac = engine.UplinkProportional(planTop)
		pivots = 0
	} else if err != nil {
		return nil, nil, fmt.Errorf("placement: task LP: %w", err)
	}
	plan.TaskFrac = frac
	plan.LPTime += float64(pivots) * lpPivotCost
	plan.DerivedHits = prof.hits
	for _, pr := range profiles {
		hits, misses := pr.prof.Lookups()
		plan.DerivedHits += hits
		plan.DerivedMisses += misses
	}
	opts.Obs.Count("lp.pivots", float64(pivots))
	lpSpan.Add(plan.LPTime)

	if id.usesRDD() {
		// A configuration value, equal from plan to plan: a replan over a
		// site nobody moved finds the layout the last plan's queries left
		// on its store.
		plan.Assigner = rdd.NewAssigner(stats.Split(opts.Seed, 77))
	}
	return plan, prof, nil
}

// tensorToMoves converts an LP movement tensor into MoveSpecs.
func tensorToMoves(allStats []*DatasetStats, tensor [][][]float64) []engine.MoveSpec {
	var moves []engine.MoveSpec
	for a, st := range allStats {
		for i := range tensor[a] {
			for j := range tensor[a][i] {
				if mb := tensor[a][i][j]; mb > 1e-6 && i != j {
					moves = append(moves, engine.MoveSpec{Dataset: st.Name, Src: i, Dst: j, MB: mb})
				}
			}
		}
	}
	return moves
}

// profiler profiles candidate move lists for one PlanScheme call. A
// profile is a pure function of the move list (same snapshot, movers and
// seed throughout the call), so each distinct list is profiled once: the
// joint planner's winner is not re-profiled for task placement, nor a
// calibration round's list for the LP-versus-heuristic comparison. A
// dataset's dry run is a pure function of its contents, its moves, its
// mover and the rng's position, so the inputs memo keeps it for every plan
// on those contents (counts).
type profiler struct {
	c        *engine.Cluster
	plan     *Plan            // the datasets (Stats) and movers the lists would run under
	seed     int64            // Execute's, for the rng its moves draw from
	profiles []datasetProfile // by dataset, from computeStats
	hits     int              // column lookups of the dry runs the memo served
	done     []profiled
}

type profiled struct {
	moves []engine.MoveSpec
	f     [][]float64
}

// volumes returns the post-combiner volume f[a][i] in MB each dataset's
// dominant query would produce once Execute ran the moves, counted on the
// cell columns (engine.Profile) without moving a record.
func (p *profiler) volumes(moves []engine.MoveSpec) ([][]float64, error) {
	for _, d := range p.done {
		if slices.Equal(d.moves, moves) {
			return d.f, nil
		}
	}
	f := make([][]float64, len(p.profiles))
	seed := stats.Split(p.seed, 501)
	src := &draws{Rand: stats.NewRand(seed), seed: seed}
	rng := rand.New(src)
	order, groups := byDataset(moves)
	for _, st := range p.plan.Stats {
		if groups[st.Name] == nil {
			order = append(order, st.Name) // no moves: nothing drawn
		}
	}
	for _, name := range order {
		a := slices.IndexFunc(p.plan.Stats, func(st *DatasetStats) bool { return st.Name == name })
		counts, hits, err := p.profiles[a].counts(groups[name], p.plan.MoverFor(name), src, rng)
		p.hits += hits
		if err != nil {
			return nil, fmt.Errorf("placement: profiling %q: %w", name, err)
		}
		f[a] = make([]float64, len(counts))
		for i, n := range counts {
			f[a][i] = p.c.MB(n)
		}
	}
	p.done = append(p.done, profiled{moves, f})
	return f, nil
}

// dryRun is a dataset's counts after a move list run by a mover with the
// rng at a seed and position, and the draws and column lookups it made.
type dryRun struct {
	specs    []engine.MoveSpec
	mover    engine.Mover
	seed     int64
	position uint64
	counts   []int
	draws    uint64
	hits     int
}

// counts is the dataset's counts after specs, run by mover with rng, which
// draws from src: the memo's when a plan on the same contents made that dry
// run — its draws are then skipped, and its column lookups returned to count
// as hits.
func (dp datasetProfile) counts(specs []engine.MoveSpec, mover engine.Mover, src *draws, rng *rand.Rand) (counts []int, memoHits int, err error) {
	in, at := dp.in, src.n
	in.mu.Lock()
	if k := slices.IndexFunc(in.dry, func(d dryRun) bool {
		return d.mover == mover && d.seed == src.seed && d.position == at && slices.Equal(d.specs, specs)
	}); k >= 0 {
		d := in.dry[k]
		in.mu.Unlock()
		for range d.draws {
			src.Int63()
		}
		return d.counts, d.hits, nil
	}
	in.mu.Unlock()
	hits, _ := dp.prof.Lookups()
	if counts, err = dp.prof.Counts(specs, mover, rng); err != nil {
		return nil, 0, err
	}
	after, _ := dp.prof.Lookups()
	in.mu.Lock()
	// A joint plan profiles at most four lists; keep the last eight.
	in.dry = append(in.dry[max(len(in.dry)-7, 0):], dryRun{specs, mover, src.seed, at, counts, src.n - at, after - hits})
	in.mu.Unlock()
	return counts, 0, nil
}

// draws is stats.NewRand(seed) as a source that counts its draws.
type draws struct {
	*rand.Rand
	seed int64
	n    uint64
}

func (d *draws) Int63() int64   { d.n++; return d.Rand.Int63() }
func (d *draws) Uint64() uint64 { d.n++; return d.Rand.Uint64() }

// plannedTime profiles a movement plan and returns the optimal-r shuffle
// time on the realized volumes — the planner's figure of merit.
func (p *profiler) plannedTime(planTop *wan.Topology, moves []engine.MoveSpec) (float64, error) {
	f, err := p.volumes(moves)
	if err != nil {
		return 0, err
	}
	_, t, _, err := lp.SolveTaskPlacementVolumes(f, planTop.Uplinks(), planTop.Downlinks(), 0)
	return t, err
}

// calibrateIncoming compares the LP's predicted volumes against profiled
// reality and scales the un-combined incoming fraction per destination to
// close the gap. It reports whether any estimate changed materially.
func calibrateIncoming(in *lp.PlacementInput, allStats []*DatasetStats, tensor [][][]float64, fReal [][]float64) bool {
	fPred := in.ShuffleVolumes(tensor)
	changed := false
	for a := range allStats {
		for i := 0; i < in.Sites; i++ {
			var inMB, outMB float64
			for k := 0; k < in.Sites; k++ {
				if k != i {
					inMB += tensor[a][k][i]
					outMB += tensor[a][i][k]
				}
			}
			if inMB <= 1e-6 {
				continue // site received nothing; nothing to calibrate
			}
			kept := in.Input[a][i] - outMB
			if kept < 0 {
				kept = 0
			}
			keptVol := kept * in.Reduction[a] * (1 - in.SelfSim[a][i])
			predIncoming := fPred[a][i] - keptVol
			realIncoming := fReal[a][i] - keptVol
			if predIncoming <= 1e-6 || realIncoming < 0 {
				continue
			}
			corr := realIncoming / predIncoming
			if corr > 3 {
				corr = 3
			} else if corr < 0.3 {
				corr = 0.3
			}
			if corr > 0.9 && corr < 1.1 {
				continue // close enough
			}
			changed = true
			for k := 0; k < in.Sites; k++ {
				if k == i {
					continue
				}
				un := (1 - in.CrossSim[a][k][i]) * corr
				if un > 1 {
					un = 1
				} else if un < 0 {
					un = 0
				}
				in.CrossSim[a][k][i] = 1 - un
			}
		}
	}
	return changed
}

// buildLPInput assembles the §5 placement input. Similarity-agnostic
// schemes do not track S, so their input carries all-zero similarity and
// they plan with shuffle volume I·R, exactly as Iridium models it.
func buildLPInput(planTop *wan.Topology, n int, allStats []*DatasetStats, opts Options, id SchemeID) *lp.PlacementInput {
	in := &lp.PlacementInput{
		Sites:             n,
		Datasets:          len(allStats),
		Up:                planTop.Uplinks(),
		Down:              planTop.Downlinks(),
		Lag:               opts.Lag,
		IncomingInflation: incomingInflation,
		PaperObjective:    opts.PaperObjective,
		MaxPivots:         opts.lpMaxPivots,
		Obs:               opts.Obs,
	}
	for _, st := range allStats {
		in.Input = append(in.Input, st.InputMB)
		in.Reduction = append(in.Reduction, st.Reduction)
		if id.usesSimilarity() {
			in.SelfSim = append(in.SelfSim, st.SelfSim)
			in.CrossSim = append(in.CrossSim, st.CrossSim)
		} else {
			in.SelfSim = append(in.SelfSim, make([]float64, n))
			zero := make([][]float64, n)
			for i := range zero {
				zero[i] = make([]float64, n)
			}
			in.CrossSim = append(in.CrossSim, zero)
		}
	}
	return in
}

// movesToTensor converts MoveSpecs to the x[a][i][j] tensor the LP
// evaluates shuffle volumes with.
func movesToTensor(n int, allStats []*DatasetStats, moves []engine.MoveSpec) [][][]float64 {
	idx := map[string]int{}
	for a, st := range allStats {
		idx[st.Name] = a
	}
	t := make([][][]float64, len(allStats))
	for a := range t {
		t[a] = make([][]float64, n)
		for i := range t[a] {
			t[a][i] = make([]float64, n)
		}
	}
	for _, sp := range moves {
		if a, ok := idx[sp.Dataset]; ok && sp.Src != sp.Dst {
			t[a][sp.Src][sp.Dst] += sp.MB
		}
	}
	return t
}

// sequentialHeuristic reproduces the prior-work placement loop ([27], as
// §4.3 describes it): score datasets by value (query count × bottleneck
// drain time), then for each dataset in descending value move data out of
// its bottleneck site toward receivers until the bottleneck's upload time
// matches the rest, within the lag's bandwidth budget. Similarity-aware
// mode (Bohr-Sim/Bohr-RDD) uses probe scores both to pick receivers and to
// account how much moved data will combine away at the destination.
func sequentialHeuristic(top *wan.Topology, allStats []*DatasetStats, opts Options, similarityAware bool) []engine.MoveSpec {
	n := top.N()
	up := top.Uplinks()
	down := top.Downlinks()
	budgetUp := make([]float64, n)
	budgetDown := make([]float64, n)
	for i := 0; i < n; i++ {
		budgetUp[i] = opts.Lag * up[i]
		budgetDown[i] = opts.Lag * down[i]
	}

	// Dataset value: queries × bottleneck drain time.
	type scored struct {
		a     int
		value float64
	}
	order := make([]scored, len(allStats))
	for a, st := range allStats {
		var worst float64
		for i := 0; i < n; i++ {
			if d := st.InputMB[i] * st.Reduction / up[i]; d > worst {
				worst = d
			}
		}
		order[a] = scored{a: a, value: float64(st.Queries) * worst}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].value > order[j].value })

	var specs []engine.MoveSpec
	for _, sc := range order {
		st := allStats[sc.a]
		// Current shuffle-volume estimate per site.
		f := make([]float64, n)
		remaining := append([]float64(nil), st.InputMB...)
		for i := 0; i < n; i++ {
			f[i] = remaining[i] * st.Reduction // [27]'s similarity-agnostic volume model
		}
		// Move out of the bottleneck until drain times balance or the lag
		// budget runs out. Each hop equalizes the bottleneck's upload time
		// with the chosen receiver's.
		for hop := 0; hop < 4*n; hop++ {
			b, t1, _ := bottleneck(f, up)
			if b < 0 || t1 <= 0 {
				break
			}
			j := pickReceiver(st, b, t1, f, up, budgetDown, similarityAware)
			if j < 0 {
				break
			}
			// Per moved MB the bottleneck sheds p MB of shuffle volume
			// and the receiver gains q. The [27] heuristic both Iridium
			// and Bohr-Sim run is similarity-agnostic in its VOLUME
			// decisions (p = q = R); Bohr-Sim's similarity enters only
			// through the receiver choice above and through the record
			// selection the mover performs when the plan executes.
			p := st.Reduction
			q := st.Reduction
			if p <= 0 {
				break
			}
			// Equalize (f_b − p·x)/U_b with (f_j + q·x)/U_j.
			x := (f[b]*up[j] - f[j]*up[b]) / (p*up[j] + q*up[b])
			x = minF(x, remaining[b], budgetUp[b], budgetDown[j])
			if x <= 1e-6 {
				break
			}
			specs = append(specs, engine.MoveSpec{Dataset: st.Name, Src: b, Dst: j, MB: x})
			remaining[b] -= x
			budgetUp[b] -= x
			budgetDown[j] -= x
			f[b] -= x * p
			f[j] += x * q
			if nb, nt1, _ := bottleneck(f, up); nb >= 0 && nt1 > 0.999*t1 {
				break // no further meaningful progress
			}
		}
	}
	return specs
}

// bottleneck returns the site with the largest upload drain time plus the
// top-two times.
func bottleneck(f, up []float64) (site int, t1, t2 float64) {
	site = -1
	for i := range f {
		t := f[i] / up[i]
		if t > t1 {
			site, t2, t1 = i, t1, t
		} else if t > t2 {
			t2 = t
		}
	}
	return site, t1, t2
}

// pickReceiver chooses where the bottleneck's data goes among sites whose
// own drain time leaves headroom under the current bottleneck: the
// similarity-aware mode prefers the site whose data is most similar
// (largest probe score, weighted by drain headroom), the agnostic mode the
// site with the most drain headroom; both skip budget-exhausted receivers.
func pickReceiver(st *DatasetStats, b int, t1 float64, f, up, budgetDown []float64, aware bool) int {
	best := -1
	var bestScore float64
	for j := range f {
		if j == b || budgetDown[j] <= 1e-6 || up[j] <= up[b] {
			continue // never move toward a slower uplink
		}
		headroom := t1 - f[j]/up[j]
		if headroom <= 1e-9 {
			continue // already as loaded as the bottleneck
		}
		var score float64
		if aware {
			// Balance still rules: among sites with drain headroom,
			// prefer the one whose data is most similar to the
			// bottleneck's (the moved records combine away there).
			score = headroom * (0.5 + st.CrossSim[b][j])
		} else {
			score = headroom
		}
		if best < 0 || score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

func minF(vals ...float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
