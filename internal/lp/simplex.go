// Package lp provides a self-contained linear-programming facility: a
// two-phase simplex solver and the Bohr joint data/task placement model
// built on top of it (§5 of the paper).
//
// The solver handles problems of the form
//
//	minimize    c·x
//	subject to  A_i·x (≤ | = | ≥) b_i   for each constraint i
//	            x ≥ 0
//
// using the standard two-phase method with Bland's anti-cycling rule.
// Solve runs the sparse revised simplex (revised.go), which prices
// against a maintained basis inverse instead of renormalizing a dense
// tableau each pivot — placement problems are >99% zeros, so this is
// what lets the §5 LP scale past tens of sites. Every Optimal it returns
// carries a checked certificate: a primal-feasible basic solution, dual
// prices that price every column nonnegative, and no duality gap, each
// within feasTol. A basis that fails the check is solved again with
// Harris's ratio test, and reported Stalled if that fails too.
package lp

import (
	"errors"
	"fmt"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Constraint is one linear constraint A·x Op B.
type Constraint struct {
	A  []float64
	Op Op
	B  float64
}

// Problem is a minimization LP over non-negative variables.
type Problem struct {
	C           []float64 // objective coefficients (minimize)
	Constraints []Constraint
	// MaxPivots caps simplex pivots PER PHASE; 0 means the
	// defaultMaxPivots safety cap. A solve that exhausts the cap reports
	// Stalled — never Optimal with an unproven objective.
	MaxPivots int
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// Stalled means a phase hit its pivot cap before proving optimality
	// (or, in phase 1, feasibility). The basis it stopped on is NOT
	// returned: a stalled solve carries no X and no Objective, so a
	// caller can never mistake it for a solved problem. Callers fall back
	// to a known-safe plan (placement uses the no-move plan).
	Stalled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Stalled:
		return "stalled"
	}
	return "unknown"
}

// ErrStalled marks a placement sub-problem whose solve hit the pivot
// cap: the basis it stopped on is not proven optimal, so the plan built
// from it cannot be trusted. errors.Is(err, ErrStalled) identifies it
// through the placement wrappers.
var ErrStalled = errors.New("lp: solve stalled at pivot cap")

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// The solver's numeric thresholds derive from one base tolerance:
//
//	eps     (1e-9): anything smaller is numerical noise at the scale of
//	        a single pivot — reduced costs within eps of zero do not
//	        enter the basis, pivot elements within eps of zero cannot
//	        leave, and ratio-test ties are declared within eps.
//	feasTol (1e-6 = 1e3·eps): feasibility decisions tolerate the error a
//	        long solve accumulates — on the order of a thousand pivots,
//	        each contributing O(eps) rounding. The phase-1 artificial
//	        residual test and the negative-component clamp on extracted
//	        solutions BOTH use it, so a solve can no longer declare a
//	        basis feasible under one threshold and then emit components
//	        more negative than another would allow (the old 1e-6 vs
//	        -1e-7 split).
const (
	eps     = 1e-9
	feasTol = 1e3 * eps
)

// defaultMaxPivots is the per-phase pivot safety cap when the problem
// does not set MaxPivots.
const defaultMaxPivots = 200000

// pivotCap resolves the effective per-phase pivot cap.
func (p *Problem) pivotCap() int {
	if p.MaxPivots > 0 {
		return p.MaxPivots
	}
	return defaultMaxPivots
}

// iterOutcome is how a simplex phase ended.
type iterOutcome int

const (
	iterConverged iterOutcome = iota // no entering column: optimal for this cost
	iterUnbounded                    // entering column with no blocking row
	iterStalled                      // pivot cap exhausted before convergence
)

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return fmt.Errorf("lp: problem has no variables")
	}
	for i, c := range p.Constraints {
		if len(c.A) != n {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.A), n)
		}
	}
	return nil
}

// flip is the relation a constraint keeps when both sides are negated.
func flip(o Op) Op {
	switch o {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// blandAfter is the pivot count at which the solver abandons Dantzig's
// rule (most negative reduced cost, converges fast) for Bland's rule
// (lowest eligible index, cannot cycle).
const blandAfter = 5000
