package lp

import (
	"fmt"
	"time"

	"bohr/internal/obs"
)

// PlacementInput carries everything the §5 formulation needs. Amounts are
// MB, bandwidths MB/s, times seconds. Indices follow Table 1 of the paper:
// a ranges over datasets, i/j/k over sites.
type PlacementInput struct {
	Sites    int
	Datasets int
	// Input[a][i] is I_i^a, the original input data of dataset a at site i.
	Input [][]float64
	// Reduction[a] is R^a, the map-stage data reduction ratio of dataset a
	// (intermediate = input × R).
	Reduction []float64
	// SelfSim[a][i] is S_i^a, the combiner-reduction fraction of site i's
	// own data.
	SelfSim [][]float64
	// CrossSim[a][i][j] is S_{i,j}^a, how well data moved from i combines
	// at j (probe-estimated).
	CrossSim [][][]float64
	// Up[i]/Down[i] are U_i and D_i.
	Up, Down []float64
	// Lag is T, the time between recurring query arrivals within which data
	// movement must complete.
	Lag float64
	// IncomingInflation conservatively scales the un-combined fraction of
	// moved data (1 − S) when predicting receiver volume: realized
	// combining is worse than probe-ideal because moved records land in
	// fresh partitions and split across executors. 0 means 1 (no
	// inflation); the planner uses ~1.4.
	IncomingInflation float64
	// PaperObjective switches f_i to the paper's literal Eq. (1), where
	// incoming data combines at the destination's own rate (1 − S_i). The
	// default (false) uses the pairwise rate (1 − S_{k,i}) for incoming
	// data, which is linear too and is what makes similarity matter per
	// source site.
	PaperObjective bool
	// MaxPivots caps simplex pivots per phase in every sub-problem solve
	// (0 = the solver's default safety cap). A sub-problem that exhausts
	// the cap surfaces as an error wrapping ErrStalled so planners can
	// fall back to a known-safe plan instead of deploying an unproven one.
	MaxPivots int
	// Obs optionally collects solver metrics (simplex pivots, alternating
	// rounds). Nil disables collection at no cost.
	Obs *obs.Collector `json:"-"`
}

// Validate checks dimensions and value sanity.
func (in *PlacementInput) Validate() error {
	n, m := in.Sites, in.Datasets
	if n <= 0 || m <= 0 {
		return fmt.Errorf("lp: placement needs sites>0 and datasets>0, got %d/%d", n, m)
	}
	if len(in.Input) != m || len(in.Reduction) != m || len(in.SelfSim) != m || len(in.CrossSim) != m {
		return fmt.Errorf("lp: placement dataset arrays sized %d/%d/%d/%d, want %d",
			len(in.Input), len(in.Reduction), len(in.SelfSim), len(in.CrossSim), m)
	}
	if len(in.Up) != n || len(in.Down) != n {
		return fmt.Errorf("lp: placement bandwidth arrays sized %d/%d, want %d", len(in.Up), len(in.Down), n)
	}
	for i := 0; i < n; i++ {
		if in.Up[i] <= 0 || in.Down[i] <= 0 {
			return fmt.Errorf("lp: site %d has non-positive bandwidth", i)
		}
	}
	for a := 0; a < m; a++ {
		if len(in.Input[a]) != n || len(in.SelfSim[a]) != n || len(in.CrossSim[a]) != n {
			return fmt.Errorf("lp: dataset %d site arrays mis-sized", a)
		}
		if in.Reduction[a] < 0 {
			return fmt.Errorf("lp: dataset %d has negative reduction ratio", a)
		}
		for i := 0; i < n; i++ {
			if len(in.CrossSim[a][i]) != n {
				return fmt.Errorf("lp: dataset %d cross-sim row %d mis-sized", a, i)
			}
			if in.Input[a][i] < 0 {
				return fmt.Errorf("lp: dataset %d has negative input at site %d", a, i)
			}
			if s := in.SelfSim[a][i]; s < 0 || s > 1 {
				return fmt.Errorf("lp: dataset %d self-sim at site %d = %v out of [0,1]", a, i, s)
			}
			for j := 0; j < n; j++ {
				if s := in.CrossSim[a][i][j]; s < 0 || s > 1 {
					return fmt.Errorf("lp: dataset %d cross-sim (%d,%d) = %v out of [0,1]", a, i, j, s)
				}
			}
		}
	}
	if in.Lag < 0 {
		return fmt.Errorf("lp: negative lag %v", in.Lag)
	}
	return nil
}

// PlacementPlan is the joint decision: how much of each dataset to move
// between each site pair, and the reduce-task fraction per site.
type PlacementPlan struct {
	// Move[a][i][j] is x_{i,j}^a in MB. The diagonal is zero.
	Move [][][]float64
	// TaskFrac[i] is r_i, summing to 1.
	TaskFrac []float64
	// ShuffleTime is the optimized t of objective (2).
	ShuffleTime float64
	// Rounds is the number of alternating x/r rounds performed.
	Rounds int
	// PivotCount sums simplex iterations across all sub-solves.
	PivotCount int
	// SolveTime is wall-clock time spent in the optimizer.
	SolveTime time.Duration
}

// incomingSim returns the combine rate applied to data moved k→i.
func (in *PlacementInput) incomingSim(a, k, i int) float64 {
	if in.PaperObjective {
		return in.SelfSim[a][i]
	}
	return in.CrossSim[a][k][i]
}

// incomingFraction is the shuffle volume per MB of data moved k→i (before
// multiplying by R): the un-combined fraction, conservatively inflated.
func (in *PlacementInput) incomingFraction(a, k, i int) float64 {
	infl := in.IncomingInflation
	if infl <= 0 {
		infl = 1
	}
	f := infl * (1 - in.incomingSim(a, k, i))
	if f > 1 {
		f = 1
	}
	return f
}

// ShuffleVolumes evaluates f_i^a(x) of Eq. (1) for every dataset and site
// under a movement plan (nil means no movement).
func (in *PlacementInput) ShuffleVolumes(move [][][]float64) [][]float64 {
	n, m := in.Sites, in.Datasets
	f := make([][]float64, m)
	for a := 0; a < m; a++ {
		f[a] = make([]float64, n)
		for i := 0; i < n; i++ {
			kept := in.Input[a][i]
			if move != nil {
				for j := 0; j < n; j++ {
					if j != i {
						kept -= move[a][i][j]
					}
				}
			}
			if kept < 0 {
				kept = 0
			}
			vol := kept * in.Reduction[a] * (1 - in.SelfSim[a][i])
			if move != nil {
				for k := 0; k < n; k++ {
					if k == i {
						continue
					}
					vol += move[a][k][i] * in.Reduction[a] * in.incomingFraction(a, k, i)
				}
			}
			f[a][i] = vol
		}
	}
	return f
}

// ShuffleTimeFor evaluates the objective t for a concrete (move, taskFrac)
// pair: the maximum over sites of the upload time (3) and download time (4).
func (in *PlacementInput) ShuffleTimeFor(move [][][]float64, taskFrac []float64) float64 {
	f := in.ShuffleVolumes(move)
	n, m := in.Sites, in.Datasets
	var t float64
	for i := 0; i < n; i++ {
		var upMB, downMB float64
		for a := 0; a < m; a++ {
			upMB += (1 - taskFrac[i]) * f[a][i]
			var others float64
			for j := 0; j < n; j++ {
				if j != i {
					others += f[a][j]
				}
			}
			downMB += taskFrac[i] * others
		}
		if v := upMB / in.Up[i]; v > t {
			t = v
		}
		if v := downMB / in.Down[i]; v > t {
			t = v
		}
	}
	return t
}

// movePenalty is the tiny per-MB cost added to the x-objective so that,
// among plans achieving the same shuffle time, the LP prefers moving less
// data.
const movePenalty = 1e-4

// xIndex maps (a, i, j) with j≠i to the x-variable index; t is variable 0.
func xIndex(n, a, i, j int) int {
	col := j
	if j > i {
		col--
	}
	return 1 + a*n*(n-1) + i*(n-1) + col
}

// xProblem assembles the movement-plan LP for a fixed task placement r
// in w's reused problem, which it returns.
func (w *workspace) xProblem(in *PlacementInput, r []float64) *Problem {
	n, m := in.Sites, in.Datasets
	nVars := 1 + m*n*(n-1)
	prob := w.problem(nVars, in.MaxPivots)
	prob.C[0] = 1
	for v := 1; v < nVars; v++ {
		prob.C[v] = movePenalty
	}
	// The paper moves data "from the bottleneck DC to other sites with
	// more WAN bandwidth": forbid moves toward strictly slower uplinks by
	// pricing those variables out.
	for a := 0; a < m; a++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i && in.Up[j] <= in.Up[i] {
					prob.C[xIndex(n, a, i, j)] = 1e6
				}
			}
		}
	}

	// (3) upload of shuffle data at each site i:
	// Σ_a (1−r_i)·f_i^a(x) ≤ t·U_i
	for i := 0; i < n; i++ {
		row := w.row()
		row[0] = -in.Up[i]
		rhs := 0.0
		share := 1 - r[i]
		for a := 0; a < m; a++ {
			R := in.Reduction[a]
			rhs -= share * in.Input[a][i] * R * (1 - in.SelfSim[a][i])
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				row[xIndex(n, a, i, j)] -= share * R * (1 - in.SelfSim[a][i]) // data leaving i
				row[xIndex(n, a, j, i)] += share * R * in.incomingFraction(a, j, i)
			}
		}
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: rhs})
	}

	// (4) download of shuffle data at each site i:
	// r_i · Σ_a Σ_{j≠i} f_j^a(x) ≤ t·D_i
	for i := 0; i < n; i++ {
		row := w.row()
		row[0] = -in.Down[i]
		rhs := 0.0
		share := r[i]
		for a := 0; a < m; a++ {
			R := in.Reduction[a]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				// f_j depends on x through j's outgoing and incoming flows.
				rhs -= share * in.Input[a][j] * R * (1 - in.SelfSim[a][j])
				for k := 0; k < n; k++ {
					if k == j {
						continue
					}
					row[xIndex(n, a, j, k)] -= share * R * (1 - in.SelfSim[a][j])
					row[xIndex(n, a, k, j)] += share * R * in.incomingFraction(a, k, j)
				}
			}
		}
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: rhs})
	}

	// (5) pre-shuffle movement upload budget: Σ_a Σ_j x_{i,j} ≤ T·U_i.
	for i := 0; i < n; i++ {
		row := w.row()
		for a := 0; a < m; a++ {
			for j := 0; j < n; j++ {
				if j != i {
					row[xIndex(n, a, i, j)] = 1
				}
			}
		}
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: in.Lag * in.Up[i]})
	}
	// (6) pre-shuffle movement download budget: Σ_a Σ_k x_{k,i} ≤ T·D_i.
	for i := 0; i < n; i++ {
		row := w.row()
		for a := 0; a < m; a++ {
			for k := 0; k < n; k++ {
				if k != i {
					row[xIndex(n, a, k, i)] = 1
				}
			}
		}
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: in.Lag * in.Down[i]})
	}
	// Conservation: a site cannot move out more than it holds.
	for a := 0; a < m; a++ {
		for i := 0; i < n; i++ {
			row := w.row()
			for j := 0; j < n; j++ {
				if j != i {
					row[xIndex(n, a, i, j)] = 1
				}
			}
			prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: in.Input[a][i]})
		}
	}
	return prob
}

// solveX optimizes the movement plan x for a fixed task placement r.
// Always feasible: x = 0 satisfies every constraint with large enough t.
func (w *workspace) solveX(in *PlacementInput, r []float64) (move [][][]float64, t float64, pivots int, err error) {
	n, m := in.Sites, in.Datasets
	sol, err := w.solve(w.xProblem(in, r))
	if err != nil {
		return nil, 0, 0, err
	}
	if sol.Status == Stalled {
		return nil, 0, sol.Iterations, fmt.Errorf("lp: x-subproblem: %w", ErrStalled)
	}
	if sol.Status != Optimal {
		return nil, 0, sol.Iterations, fmt.Errorf("lp: x-subproblem %s", sol.Status)
	}
	move = newMove(m, n)
	for a := 0; a < m; a++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					if v := sol.X[xIndex(n, a, i, j)]; v > 1e-7 {
						move[a][i][j] = v
					}
				}
			}
		}
	}
	return move, sol.X[0], sol.Iterations, nil
}

// solveR optimizes the task placement r for a fixed movement plan.
// Variables: t (0), r_0..r_{n-1}.
func (w *workspace) solveR(in *PlacementInput, move [][][]float64) (r []float64, t float64, pivots int, err error) {
	return w.solveTaskPlacementVolumes(in.ShuffleVolumes(move), in.Up, in.Down, in.MaxPivots)
}

// rProblem assembles the task-placement LP for given per-dataset per-site
// shuffle volumes in w's reused problem, which it returns.
func (w *workspace) rProblem(f [][]float64, up, down []float64, maxPivots int) (*Problem, error) {
	n := len(up)
	if n == 0 || len(down) != n {
		return nil, fmt.Errorf("lp: task placement needs matching bandwidth arrays, got %d/%d", len(up), len(down))
	}
	// Per-site totals: own shuffle volume and the volume at all others.
	own := make([]float64, n)
	others := make([]float64, n)
	for a := range f {
		if len(f[a]) != n {
			return nil, fmt.Errorf("lp: task placement volume row %d sized %d, want %d", a, len(f[a]), n)
		}
		for i := 0; i < n; i++ {
			own[i] += f[a][i]
			for j := 0; j < n; j++ {
				if j != i {
					others[i] += f[a][j]
				}
			}
		}
	}
	prob := w.problem(1+n, maxPivots)
	prob.C[0] = 1
	for i := 0; i < n; i++ {
		// (3): own_i − r_i·own_i ≤ t·U_i
		row := w.row()
		row[0] = -up[i]
		row[1+i] = -own[i]
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: -own[i]})
		// (4): r_i·others_i ≤ t·D_i
		row = w.row()
		row[0] = -down[i]
		row[1+i] = others[i]
		prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: LE, B: 0})
	}
	// (7): Σ r_i = 1.
	row := w.row()
	for i := 0; i < n; i++ {
		row[1+i] = 1
	}
	prob.Constraints = append(prob.Constraints, Constraint{A: row, Op: EQ, B: 1})
	return prob, nil
}

// SolveTaskPlacementVolumes optimizes the reduce-task fractions for given
// per-dataset per-site shuffle volumes f[a][i] (MB) — used inside the
// alternating solver and by planners that profile realized volumes from a
// previous run of the recurring query. Variables: t (0), r_0..r_{n-1}.
// maxPivots caps pivots per simplex phase (0 = solver default); a capped
// solve that stalls returns an error wrapping ErrStalled, so planners can
// degrade to a heuristic fraction split instead of failing the round.
func SolveTaskPlacementVolumes(f [][]float64, up, down []float64, maxPivots int) (r []float64, t float64, pivots int, err error) {
	return new(workspace).solveTaskPlacementVolumes(f, up, down, maxPivots)
}

func (w *workspace) solveTaskPlacementVolumes(f [][]float64, up, down []float64, maxPivots int) (r []float64, t float64, pivots int, err error) {
	n := len(up)
	prob, err := w.rProblem(f, up, down, maxPivots)
	if err != nil {
		return nil, 0, 0, err
	}
	sol, err := w.solve(prob)
	if err != nil {
		return nil, 0, 0, err
	}
	if sol.Status == Stalled {
		return nil, 0, sol.Iterations, fmt.Errorf("lp: r-subproblem: %w", ErrStalled)
	}
	if sol.Status != Optimal {
		return nil, 0, sol.Iterations, fmt.Errorf("lp: r-subproblem %s", sol.Status)
	}
	r = make([]float64, n)
	copy(r, sol.X[1:1+n])
	return r, sol.X[0], sol.Iterations, nil
}

// SolvePlacement runs the joint optimization of §5. Constraint (3) couples
// r_i with f_i(x), so the exact formulation is bilinear; we solve it the
// standard way by alternating two exact LPs — x for fixed r, then r for
// fixed x — which monotonically decreases the objective and converges in a
// handful of rounds.
func SolvePlacement(in *PlacementInput) (*PlacementPlan, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	n := in.Sites

	// Initial r: proportional to uplink bandwidth (more bandwidth → serve
	// more reduce output), the heuristic prior work starts from.
	r := make([]float64, n)
	var totalUp float64
	for i := 0; i < n; i++ {
		totalUp += in.Up[i]
	}
	for i := 0; i < n; i++ {
		r[i] = in.Up[i] / totalUp
	}

	// One workspace serves every round: after round 0 the x-LP and r-LP
	// rebuild in place and solve without growing it.
	w := new(workspace)
	plan := &PlacementPlan{}
	var bestMove [][][]float64
	bestT := in.ShuffleTimeFor(nil, r)
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		move, _, p1, err := w.solveX(in, r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		plan.PivotCount += p1
		newR, t2, p2, err := w.solveR(in, move)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		plan.PivotCount += p2
		plan.Rounds = round + 1
		r = newR
		bestMove = move
		if bestT-t2 < 1e-6*(1+bestT) {
			bestT = t2
			break
		}
		bestT = t2
	}
	if bestMove == nil {
		bestMove = newMove(in.Datasets, n)
	}
	plan.Move = bestMove
	plan.TaskFrac = r
	plan.ShuffleTime = in.ShuffleTimeFor(bestMove, r)
	plan.SolveTime = time.Since(start)
	in.Obs.Count("lp.pivots", float64(plan.PivotCount))
	in.Obs.Observe("lp.solve.rounds", float64(plan.Rounds))
	return plan, nil
}

// newMove allocates an all-zero m×n×n move tensor in three slabs.
func newMove(m, n int) [][][]float64 {
	cells := make([]float64, m*n*n)
	rows := make([][]float64, m*n)
	move := make([][][]float64, m)
	for a := range move {
		for i := 0; i < n; i++ {
			k := (a*n + i) * n
			rows[a*n+i] = cells[k : k+n : k+n]
		}
		move[a] = rows[a*n : a*n+n : a*n+n]
	}
	return move
}
