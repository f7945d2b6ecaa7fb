package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bohr/internal/stats"
)

// pivotCapped is a tiny LP that needs at least two phase-2 pivots: both
// structural variables must enter the basis to reach the optimum of
// minimize -x1-x2 s.t. x1≤1, x2≤1, x1+x2≤1.5. With MaxPivots=1 the
// solver must stall.
func pivotCapped() *Problem {
	return &Problem{
		C: []float64{-1, -1},
		Constraints: []Constraint{
			{A: []float64{1, 0}, Op: LE, B: 1},
			{A: []float64{0, 1}, Op: LE, B: 1},
			{A: []float64{1, 1}, Op: LE, B: 1.5},
		},
		MaxPivots: 1,
	}
}

// nearDegenerate has a feasible region that is a sliver 1e-8 wide — well
// inside feasTol.
func nearDegenerate() *Problem {
	return &Problem{
		C: []float64{1, 1},
		Constraints: []Constraint{
			{A: []float64{1, 1}, Op: GE, B: 1},
			{A: []float64{1, 1}, Op: LE, B: 1 + 1e-8},
			{A: []float64{1, -1}, Op: EQ, B: 1 - 1e-8},
		},
	}
}

// solvers are Solve and the refSolve oracle it must reproduce.
var solvers = []struct {
	name  string
	solve func(p *Problem) (Solution, error)
}{
	{"sparse", func(p *Problem) (Solution, error) { return p.Solve() }},
	{"ref", refSolve},
}

// TestStalledAtPivotCap pins a solve that exhausts its pivot cap to
// Stalled with no X and no Objective, never an unproven Optimal.
func TestStalledAtPivotCap(t *testing.T) {
	for _, tc := range solvers {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := tc.solve(pivotCapped())
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if sol.Status != Stalled {
				t.Fatalf("status = %v, want %v", sol.Status, Stalled)
			}
			if sol.X != nil {
				t.Errorf("stalled solve leaked X = %v", sol.X)
			}
			if sol.Objective != 0 {
				t.Errorf("stalled solve leaked Objective = %v", sol.Objective)
			}
			// Sanity: the same problem without the cap solves to -1.5.
			p := pivotCapped()
			p.MaxPivots = 0
			full, err := tc.solve(p)
			if err != nil {
				t.Fatalf("uncapped solve: %v", err)
			}
			if full.Status != Optimal || math.Abs(full.Objective+1.5) > 1e-9 {
				t.Fatalf("uncapped solve = %v obj %v, want optimal -1.5", full.Status, full.Objective)
			}
		})
	}
}

// TestStalledSurfacesThroughPlacementWrappers checks the placement
// sub-problem entry points translate Stalled into ErrStalled rather than
// returning a half-solved plan.
func TestStalledSurfacesThroughPlacementWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInput(rng)
	in.MaxPivots = 1
	if _, err := SolvePlacement(in); !errors.Is(err, ErrStalled) {
		t.Errorf("SolvePlacement with pivot cap 1: err = %v, want ErrStalled", err)
	}
	f := in.ShuffleVolumes(nil)
	if _, _, _, err := SolveTaskPlacementVolumes(f, in.Up, in.Down, 1); !errors.Is(err, ErrStalled) {
		t.Errorf("SolveTaskPlacementVolumes with cap 1: err = %v, want ErrStalled", err)
	}
}

// TestNearDegenerateTolerances exercises the eps/feasTol pair on the
// sliver problem: phase 1 must accept it, the certificate must pass, and
// the extracted solution must come back clamped to x ≥ 0 instead of
// carrying ~-1e-8 noise.
func TestNearDegenerateTolerances(t *testing.T) {
	for _, tc := range solvers {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := tc.solve(nearDegenerate())
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if sol.Status != Optimal {
				t.Fatalf("status = %v, want optimal", sol.Status)
			}
			for i, v := range sol.X {
				if v < 0 {
					t.Errorf("x[%d] = %v, want clamped to >= 0", i, v)
				}
			}
			if math.Abs(sol.Objective-1) > feasTol {
				t.Errorf("objective = %v, want 1 within feasTol", sol.Objective)
			}
		})
	}
}

// sameSolution fails unless got and want agree bit for bit: status, pivot
// count, objective and every component of X.
func sameSolution(t *testing.T, label string, got, want Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations {
		t.Fatalf("%s: status/pivots %v/%d, ref %v/%d", label, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, ref %v", label, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d components, ref %d", label, len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, ref %v", label, j, got.X[j], want.X[j])
		}
	}
}

// matchesRef solves p on w — a workspace that may carry earlier, larger
// or smaller problems — and holds it to refSolve bit for bit.
func matchesRef(t *testing.T, label string, w *workspace, p *Problem) Solution {
	t.Helper()
	want, err := refSolve(p)
	if err != nil {
		t.Fatalf("%s: ref: %v", label, err)
	}
	got, err := w.solve(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameSolution(t, label, got, want)
	return got
}

// fig6Shaped is a joint placement problem at fig6-batch's shape, 10
// sites and 4 datasets, generated as the end-to-end benchmark's LP probe
// generates it; seed 11 is the probe itself.
func fig6Shaped(seed int64) *PlacementInput {
	const n, m = 10, 4
	rng := stats.NewRand(seed)
	in := &PlacementInput{Sites: n, Datasets: m, Up: make([]float64, n), Down: make([]float64, n), Lag: 30}
	for i := 0; i < n; i++ {
		in.Up[i] = 3 + rng.Float64()*12
		in.Down[i] = 3 + rng.Float64()*12
	}
	for a := 0; a < m; a++ {
		input := make([]float64, n)
		self := make([]float64, n)
		cross := make([][]float64, n)
		for i := 0; i < n; i++ {
			input[i] = rng.Float64() * 10
			self[i] = rng.Float64()
			cross[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				cross[i][j] = rng.Float64()
			}
			cross[i][i] = self[i]
		}
		in.Input = append(in.Input, input)
		in.SelfSim = append(in.SelfSim, self)
		in.CrossSim = append(in.CrossSim, cross)
		in.Reduction = append(in.Reduction, rng.Float64())
	}
	return in
}

// placementCorpus is the 20-trial random placement corpus: its x-LP at
// uplink-proportional task fractions and its no-move r-LP, each built in
// a fresh workspace so the problems do not share rows.
func placementCorpus(t *testing.T) (labels []string, probs []*Problem) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		in := randomInput(rng)
		labels = append(labels, "x-subproblem", "r-subproblem")
		probs = append(probs, new(workspace).xProblem(in, uplinkProportional(in)))
		pr, err := new(workspace).rProblem(in.ShuffleVolumes(nil), in.Up, in.Down, 0)
		if err != nil {
			t.Fatalf("trial %d: rProblem: %v", trial, err)
		}
		probs = append(probs, pr)
	}
	return labels, probs
}

// TestSolveMatchesRefOnPlacementCorpus holds Solve to refSolve bit for
// bit over the random placement corpus, through one workspace that the
// problems' changing shapes grow and shrink.
func TestSolveMatchesRefOnPlacementCorpus(t *testing.T) {
	labels, probs := placementCorpus(t)
	w := new(workspace)
	for k, p := range probs {
		matchesRef(t, labels[k], w, p)
	}
}

// TestCertifyOnPlacementCorpus: every corpus solve is certified Optimal,
// and its X satisfies the original, un-normalized constraints.
func TestCertifyOnPlacementCorpus(t *testing.T) {
	labels, probs := placementCorpus(t)
	for k, p := range probs {
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%d %s: %v", k/2, labels[k], err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%d %s: status %v, want certified optimal", k/2, labels[k], sol.Status)
		}
		if v := maxViolation(p, sol.X); v > 1e-6 {
			t.Errorf("%d %s: X violates a constraint by %v of max(1, |b|)", k/2, labels[k], v)
		}
	}
}

// maxViolation is how far x breaks p's original constraints, the worst
// row's excess over max(1, |b|).
func maxViolation(p *Problem, x []float64) float64 {
	var worst float64
	for _, c := range p.Constraints {
		var ax float64
		for j, a := range c.A {
			ax += a * x[j]
		}
		excess := ax - c.B
		switch c.Op {
		case GE:
			excess = -excess
		case EQ:
			excess = math.Abs(excess)
		}
		worst = math.Max(worst, excess/math.Max(1, math.Abs(c.B)))
	}
	return worst
}

// TestRejectedSolveRetriesWithHarris pins the false Optimal the
// certificate exists for. At the fig6 shape, seed 27 with the planner's
// 1.4 inflation, round 3's x-LP pivots on a d_i of rounding size and the
// smallest-ratio solver stops on a basis whose X breaks the original
// constraints — refSolve, the solver before the certificate, returns it
// as Optimal. Solve must reject that basis and return the Harris retry's
// certified optimum, counting both runs' pivots.
func TestRejectedSolveRetriesWithHarris(t *testing.T) {
	in := fig6Shaped(27)
	in.IncomingInflation = 1.4
	w := new(workspace)
	r := uplinkProportional(in)
	for round := 0; round < 3; round++ {
		move, _, _, err := w.solveX(in, r)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r, _, _, err = w.solveR(in, move); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	p := new(workspace).xProblem(in, r)
	ref, err := refSolve(p)
	if err != nil || ref.Status != Optimal {
		t.Fatalf("ref: %v %v", ref.Status, err)
	}
	if v := maxViolation(p, ref.X); v <= 1e-6 {
		t.Fatalf("ref's Optimal violates by only %v: this input no longer exercises the certificate", v)
	}
	first, rejected := new(workspace).run(p, false)
	if !rejected {
		t.Fatal("certify accepted the smallest-ratio basis")
	}
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("Solve: %v %v, want the retry's certified optimum", sol.Status, err)
	}
	if v := maxViolation(p, sol.X); v > 1e-6 {
		t.Errorf("retry's X violates a constraint by %v", v)
	}
	if sol.Iterations <= first.Iterations {
		t.Errorf("Solve reports %d pivots, fewer than the rejected run's %d alone", sol.Iterations, first.Iterations)
	}
	t.Logf("ref objective %v (violation %.3g), certified %v after %d pivots", ref.Objective, maxViolation(p, ref.X), sol.Objective, sol.Iterations)
}

// TestSolveMatchesRefEveryRound replays SolvePlacement's alternating
// rounds on one workspace and holds each round's x-LP and r-LP to
// refSolve, at the fig6 shape and on inputs with the paper's literal
// objective and inflated incoming volume. The replay must land on
// SolvePlacement's own task fractions bit for bit.
func TestSolveMatchesRefEveryRound(t *testing.T) {
	paper := randomInput(rand.New(rand.NewSource(6)))
	paper.PaperObjective = true
	inflated := fig6Shaped(11)
	inflated.IncomingInflation = 1.4
	for _, tc := range []struct {
		name string
		in   *PlacementInput
	}{{"fig6", fig6Shaped(11)}, {"paper-objective", paper}, {"inflated", inflated}} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			plan, err := SolvePlacement(in)
			if err != nil {
				t.Fatal(err)
			}
			w := new(workspace)
			r := uplinkProportional(in)
			for round := 0; round < plan.Rounds; round++ {
				matchesRef(t, "x-LP", w, new(workspace).xProblem(in, r))
				move, _, _, err := w.solveX(in, r)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				pr, err := new(workspace).rProblem(in.ShuffleVolumes(move), in.Up, in.Down, in.MaxPivots)
				if err != nil {
					t.Fatal(err)
				}
				matchesRef(t, "r-LP", w, pr)
				if r, _, _, err = w.solveR(in, move); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			for i := range r {
				if math.Float64bits(r[i]) != math.Float64bits(plan.TaskFrac[i]) {
					t.Fatalf("replay r[%d] = %v, SolvePlacement %v", i, r[i], plan.TaskFrac[i])
				}
			}
		})
	}
}

// TestSolveMatchesRefEdgeCases covers the hand-built problems: the
// pivot-capped stall, the near-degenerate sliver, and the small LPs of
// simplex_test.go's shapes with ≥ and = rows.
func TestSolveMatchesRefEdgeCases(t *testing.T) {
	w := new(workspace)
	matchesRef(t, "pivot-capped", w, pivotCapped())
	matchesRef(t, "near-degenerate", w, nearDegenerate())
	matchesRef(t, "infeasible", w, &Problem{C: []float64{1}, Constraints: []Constraint{
		{A: []float64{1}, Op: LE, B: 1}, {A: []float64{1}, Op: GE, B: 2}}})
	matchesRef(t, "unbounded", w, &Problem{C: []float64{-1}, Constraints: []Constraint{
		{A: []float64{1}, Op: GE, B: 0}}})
	matchesRef(t, "negative-rhs", w, &Problem{C: []float64{2, 3}, Constraints: []Constraint{
		{A: []float64{-1, -1}, Op: LE, B: -4}, {A: []float64{1, 0}, Op: GE, B: 1}, {A: []float64{1, 1}, Op: EQ, B: 5}}})
}

// largestRatioSolve runs both phases with Dantzig pricing and a wrong
// ratio test — the leaving row is the one with the LARGEST ratio — and
// reports the pivots taken and whether certify accepts where it stopped.
func largestRatioSolve(p *Problem) (pivots int, certified bool) {
	r := &new(workspace).revised
	r.reset(p)
	run := func(cost []float64, bannedFrom int) {
		for it := 0; it < 1000; it++ {
			r.btran(cost)
			enter, most := -1, -eps
			for j := 0; j < bannedFrom; j++ {
				if rc := r.reducedCost(cost, j); !r.inBasis[j] && rc < most {
					enter, most = j, rc
				}
			}
			if enter < 0 {
				return
			}
			r.ftran(enter)
			leave := -1
			for i, d := range r.d {
				if d > eps && (leave < 0 || r.xB[i]/d > r.xB[leave]/r.d[leave]) {
					leave = i
				}
			}
			if leave < 0 {
				return
			}
			r.pivotUpdate(leave, enter)
			pivots++
		}
	}
	cost := r.cost
	clear(cost[:r.f.artBegin])
	for j := r.f.artBegin; j < r.f.n; j++ {
		cost[j] = 1
	}
	run(cost, r.f.n)
	copy(cost, p.C)
	clear(cost[len(p.C):])
	run(cost, r.f.artBegin)
	return pivots, r.certify(cost)
}

// TestCertifyRejectsLargestRatioTest: a solver whose ratio test picks
// the largest ratio walks off the feasible region; certify must reject
// every basis it stops on, over the corpus and at the fig6 shape, while
// the same problems solved correctly certify (TestCertifyOnPlacementCorpus).
func TestCertifyRejectsLargestRatioTest(t *testing.T) {
	labels, probs := placementCorpus(t)
	labels = append(labels, "fig6 x-subproblem")
	in := fig6Shaped(11)
	probs = append(probs, new(workspace).xProblem(in, uplinkProportional(in)))
	for k, p := range probs {
		pivots, certified := largestRatioSolve(p)
		if pivots == 0 {
			t.Fatalf("%d %s: the wrong solver took no pivot", k, labels[k])
		}
		if certified {
			t.Errorf("%d %s: certify accepted a largest-ratio basis after %d pivots", k, labels[k], pivots)
		}
	}
}

// TestSingularRefactorWaitsForNextRound pins the fix for a singular
// refactor: it keeps the product-form inverse AND restarts the update
// count, so the O(m³) attempt recurs once per refactorEvery updates, not
// on every pivot. The basis {x0, x1} of two parallel columns is singular
// whatever row 0 holds; row 0 alternates between x2 and x0.
func TestSingularRefactorWaitsForNextRound(t *testing.T) {
	p := &Problem{C: []float64{0, 0, 0}, Constraints: []Constraint{
		{A: []float64{1, 1, 2}, Op: LE, B: 1},
		{A: []float64{2, 2, 4}, Op: LE, B: 2},
	}}
	r := &new(workspace).revised
	r.reset(p)
	r.inBasis[r.basis[0]], r.inBasis[r.basis[1]] = false, false
	r.basis[0], r.basis[1] = 0, 1
	r.inBasis[0], r.inBasis[1] = true, true
	const rounds = 3
	refactors := 0
	for k := 0; k < rounds*refactorEvery; k++ {
		enter := 2
		if r.basis[0] == 2 {
			enter = 0
		}
		r.ftran(enter)
		r.pivotUpdate(0, enter)
		if r.updates == 0 {
			refactors++
		}
		if r.updates >= refactorEvery {
			t.Fatalf("update %d: %d updates pending after a refactor attempt", k, r.updates)
		}
	}
	if refactors != rounds {
		t.Fatalf("%d refactor attempts over %d updates, want %d", refactors, rounds*refactorEvery, rounds)
	}
}

// TestSolvePlacementAllocs: one workspace serves every round, so
// SolvePlacement allocates a fixed setup — chiefly the first x-LP's rows
// and the volumes before and after — plus its results per round: the move plan, the volumes, the r-LP
// totals, two X vectors and r. Nothing is allocated per pivot: the
// 10×20 problem takes several times the fig6 shape's pivots under the
// same bound.
func TestSolvePlacementAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *PlacementInput
	}{{"fig6", fig6Shaped(11)}, {"10x20", tenSitesTwentyDatasets()}} {
		t.Run(tc.name, func(t *testing.T) {
			n, m := tc.in.Sites, tc.in.Datasets
			var plan *PlacementPlan
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if plan, err = SolvePlacement(tc.in); err != nil {
					t.Fatal(err)
				}
			})
			bound := 4*n + m*n + 2*m + 64 + (m+12)*plan.Rounds
			t.Logf("%.0f allocs, %d rounds, %d pivots (bound %d)", allocs, plan.Rounds, plan.PivotCount, bound)
			if allocs > float64(bound) {
				t.Fatalf("%.0f allocs over %d rounds and %d pivots, want ≤ %d", allocs, plan.Rounds, plan.PivotCount, bound)
			}
		})
	}
}
