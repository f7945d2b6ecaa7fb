package lp

import "math"

// This file implements the sparse revised simplex behind Problem.Solve.
// The placement LPs are overwhelmingly sparse (the §5 x-subproblem at n
// sites and m datasets has ~m·n² variables but only a handful of
// nonzeros per column), so the solver keeps:
//
//   - the constraint matrix A in compressed sparse column (CSC) form —
//     three flat arrays filled after one count pass — normalized so
//     RHS ≥ 0, with a slack for ≤, surplus+artificial for ≥ and an
//     artificial for =;
//   - a dense m×m basis inverse B⁻¹, updated with the O(m²) product-form
//     rule per pivot and rebuilt from scratch by Gauss-Jordan with
//     partial pivoting every refactorEvery pivots to shed accumulated
//     rounding error.
//
// Pricing is BTRAN (y = c_B·B⁻¹ over the basic columns with nonzero cost)
// plus one sparse dot per column that could enter: O(m·k + nnz) per
// pivot for k such columns. Dantzig's rule until blandAfter pivots, then
// Bland's rule; ratio-test ties break toward the lowest basis index.
// Every Optimal is certified against the problem before it is returned;
// a rejected one is solved again with Harris's ratio test.
type sparseForm struct {
	m        int // constraint rows
	n        int // total columns: structural + slack + artificial
	nStruct  int
	artBegin int // first artificial column
	nArt     int
	// Column j's nonzeros are rowIdx[colStart[j]:colStart[j+1]] and the
	// same range of val, in increasing row order.
	colStart []int
	rowIdx   []int32
	val      []float64
	colAbs   []float64 // Σ_i |a_ij| per column, for the pricing skip rule
	b        []float64 // normalized RHS, all ≥ 0
	basis    []int     // initial basic column per row (slack or artificial)
}

// build fills f with p's normalized constraints, reusing f's arrays: one
// pass counts each column's nonzeros, a second places them.
func (f *sparseForm) build(p *Problem) {
	n := len(p.C)
	m := len(p.Constraints)
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		op := c.Op
		if c.B < 0 {
			op = flip(op)
		}
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	cols := n + nSlack + nArt
	f.m, f.n, f.nStruct, f.artBegin, f.nArt = m, cols, n, n+nSlack, nArt

	// Count column j's nonzeros into colStart[j+1] (slack and artificial
	// columns hold one each), then prefix-sum into starts.
	f.colStart = zeroed(f.colStart, cols+1)
	for _, c := range p.Constraints {
		for j, v := range c.A {
			if v != 0 {
				f.colStart[j+1]++
			}
		}
	}
	for j := n; j < cols; j++ {
		f.colStart[j+1] = 1
	}
	for j := 0; j < cols; j++ {
		f.colStart[j+1] += f.colStart[j]
	}
	nnz := f.colStart[cols]
	f.rowIdx = resized(f.rowIdx, nnz)
	f.val = resized(f.val, nnz)
	f.b = resized(f.b, m)
	f.basis = resized(f.basis, m)

	// Place the nonzeros row by row, using colStart[j] as column j's
	// cursor; afterwards it holds column j+1's start, shifted back below.
	slackCol := n
	artCol := f.artBegin
	for i, c := range p.Constraints {
		sign := 1.0
		op := c.Op
		b := c.B
		if b < 0 {
			sign = -1
			b = -b
			op = flip(op)
		}
		for j, v := range c.A {
			if v != 0 {
				f.place(j, i, sign*v)
			}
		}
		f.b[i] = b
		switch op {
		case LE:
			f.place(slackCol, i, 1)
			f.basis[i] = slackCol
			slackCol++
		case GE:
			f.place(slackCol, i, -1) // surplus
			slackCol++
			f.place(artCol, i, 1)
			f.basis[i] = artCol
			artCol++
		case EQ:
			f.place(artCol, i, 1)
			f.basis[i] = artCol
			artCol++
		}
	}
	copy(f.colStart[1:], f.colStart[:cols])
	f.colStart[0] = 0

	f.colAbs = resized(f.colAbs, cols)
	for j := range f.colAbs {
		_, val := f.col(j)
		var s float64
		for _, v := range val {
			s += math.Abs(v)
		}
		f.colAbs[j] = s
	}
}

// place appends a_ij = v at column j's cursor during build.
func (f *sparseForm) place(j, i int, v float64) {
	k := f.colStart[j]
	f.rowIdx[k] = int32(i)
	f.val[k] = v
	f.colStart[j] = k + 1
}

// col returns column j's row indices and values.
func (f *sparseForm) col(j int) ([]int32, []float64) {
	lo, hi := f.colStart[j], f.colStart[j+1]
	return f.rowIdx[lo:hi], f.val[lo:hi]
}

// refactorEvery is how many product-form updates the solver accepts
// before rebuilding B⁻¹ from the basis columns. Each update multiplies
// rounding error into the inverse; a periodic O(m³) rebuild resets it.
const refactorEvery = 128

// revised is the solver state. A workspace keeps one across solves, so
// every slice here is resized, not reallocated, when the next problem
// fits in it.
type revised struct {
	f sparseForm
	// binvT is B⁻¹ stored TRANSPOSED in one flat slab: binvT[k*m+i] =
	// B⁻¹[i][k]. Both hot kernels then stream contiguously: FTRAN
	// accumulates scaled columns of B⁻¹ (= rows of binvT), and BTRAN
	// dots c_B against them.
	binvT   []float64
	xB      []float64 // current basic solution B⁻¹·b
	basis   []int     // basic column per row
	inBasis []bool    // per column
	y       []float64 // BTRAN buffer: dual prices
	maxY    float64   // max_k |y[k]| after the last btran
	d       []float64 // FTRAN buffer: entering column in basis coordinates
	cbRow   []int32   // BTRAN gather: rows whose basic column costs ≠ 0,
	cbCost  []float64 // and those costs
	cost    []float64 // the current phase's cost over all f.n columns
	harris  bool      // ratio test: Harris's (a retry) or smallest ratio
	// refactor's m×m scratch matrices and their row views, which its row
	// swaps permute.
	bm, inv         []float64
	bmRows, invRows [][]float64
	updates         int // product-form updates since last refactorization
}

// reset loads p into r with the all-slack/artificial starting basis.
func (r *revised) reset(p *Problem) {
	r.f.build(p)
	m, n := r.f.m, r.f.n
	r.binvT = zeroed(r.binvT, m*m)
	for i := 0; i < m; i++ {
		r.binvT[i*m+i] = 1 // initial basis is I (slacks/artificials)
	}
	r.xB = append(r.xB[:0], r.f.b...)
	r.basis = append(r.basis[:0], r.f.basis...)
	r.inBasis = zeroed(r.inBasis, n)
	for _, j := range r.basis {
		r.inBasis[j] = true
	}
	r.y = zeroed(r.y, m)
	r.d = zeroed(r.d, m)
	r.cost = resized(r.cost, n)
	r.updates = 0
}

// ftran computes d = B⁻¹·A_j for sparse column j: one contiguous
// scaled-add per nonzero of the column.
func (r *revised) ftran(j int) {
	m := r.f.m
	d := r.d
	clear(d)
	idx, val := r.f.col(j)
	for e, k := range idx {
		v := val[e]
		col := r.binvT[int(k)*m : int(k)*m+m]
		for i, c := range col {
			d[i] += v * c
		}
	}
}

// btran computes the dual prices y = c_B·B⁻¹ (y[k] = Σ_i cb[i]·B⁻¹[i][k])
// for the current basis under the given cost vector, summing over the
// basic columns with nonzero cost in row order, and records max|y|.
func (r *revised) btran(cost []float64) {
	m := r.f.m
	r.cbRow, r.cbCost = r.cbRow[:0], r.cbCost[:0]
	for i, bj := range r.basis {
		if c := cost[bj]; c != 0 {
			r.cbRow = append(r.cbRow, int32(i))
			r.cbCost = append(r.cbCost, c)
		}
	}
	r.maxY = 0
	for k := 0; k < m; k++ {
		row := r.binvT[k*m : k*m+m]
		var s float64
		for e, i := range r.cbRow {
			s += r.cbCost[e] * row[i]
		}
		r.y[k] = s
		if a := math.Abs(s); a > r.maxY {
			r.maxY = a
		}
	}
}

// reducedCost prices one column against the current duals: c_j - y·A_j.
func (r *revised) reducedCost(cost []float64, j int) float64 {
	rc := cost[j]
	idx, val := r.f.col(j)
	for e, k := range idx {
		rc -= r.y[k] * val[e]
	}
	return rc
}

// cannotEnter reports that column j prices positive however its dot
// with y rounds: |y·A_j| ≤ max|y|·Σ|a_j|, and the factor 2 absorbs the
// rounding of both sides. Neither rule would pick it, so pricing skips
// the dot. In phase 2 this drops the x-LP's moves toward slower uplinks,
// priced at 1e6, for as long as the duals stay small.
func (r *revised) cannotEnter(cost []float64, j int) bool {
	return cost[j] > 2*r.maxY*r.f.colAbs[j]
}

// pivotUpdate applies the product-form update for column `enter` leaving
// row `leave`, with r.d already holding B⁻¹·A_enter. O(m²), contiguous.
func (r *revised) pivotUpdate(leave, enter int) {
	m := r.f.m
	d := r.d
	pv := d[leave]
	theta := r.xB[leave] / pv
	for i := range r.xB {
		r.xB[i] -= theta * d[i]
	}
	r.xB[leave] = theta
	for k := 0; k < m; k++ {
		row := r.binvT[k*m : k*m+m]
		br := row[leave] / pv
		if br == 0 {
			continue
		}
		for i := range row {
			row[i] -= d[i] * br
		}
		row[leave] = br
	}
	r.inBasis[r.basis[leave]] = false
	r.inBasis[enter] = true
	r.basis[leave] = enter
	r.updates++
	if r.updates >= refactorEvery {
		r.refactor()
	}
}

// refactor rebuilds B⁻¹ from the current basis columns by Gauss-Jordan
// elimination with partial pivoting, then recomputes xB from the fresh
// inverse — discarding the rounding error refactorEvery product-form
// updates multiplied in. If the basis matrix reads as numerically
// singular (which a valid simplex basis shouldn't), the accumulated
// inverse is kept rather than replaced with garbage, and the next
// attempt waits another refactorEvery updates.
func (r *revised) refactor() {
	m := r.f.m
	r.updates = 0
	r.bm = zeroed(r.bm, m*m)
	r.inv = zeroed(r.inv, m*m)
	r.bmRows = resized(r.bmRows, m)
	r.invRows = resized(r.invRows, m)
	bm, inv := r.bmRows, r.invRows
	for i := 0; i < m; i++ {
		bm[i] = r.bm[i*m : i*m+m]
		inv[i] = r.inv[i*m : i*m+m]
		inv[i][i] = 1
	}
	for k, j := range r.basis {
		idx, val := r.f.col(j)
		for e, row := range idx {
			bm[row][k] = val[e]
		}
	}
	for col := 0; col < m; col++ {
		piv := col
		for i := col + 1; i < m; i++ {
			if math.Abs(bm[i][col]) > math.Abs(bm[piv][col]) {
				piv = i
			}
		}
		if math.Abs(bm[piv][col]) <= eps {
			return // numerically singular: keep the product-form inverse
		}
		bm[col], bm[piv] = bm[piv], bm[col]
		inv[col], inv[piv] = inv[piv], inv[col]
		pv := bm[col][col]
		for j := 0; j < m; j++ {
			bm[col][j] /= pv
			inv[col][j] /= pv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			f := bm[i][col]
			if f == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				bm[i][j] -= f * bm[col][j]
				inv[i][j] -= f * inv[col][j]
			}
		}
	}
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			r.binvT[k*m+i] = inv[i][k]
		}
	}
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < m; j++ {
			s += inv[i][j] * r.f.b[j]
		}
		if s < 0 && s > -feasTol {
			s = 0 // same accumulated-error tolerance phase 1 accepts
		}
		r.xB[i] = s
	}
}

// iterate runs revised-simplex pivots for the given cost vector until
// optimal, unbounded, or the pivot cap. Columns at index bannedFrom and
// beyond (artificials in phase 2) never enter.
func (r *revised) iterate(cost []float64, bannedFrom int, cap int) (iters int, out iterOutcome) {
	for iters = 0; iters < cap; iters++ {
		r.btran(cost)
		enter := -1
		if iters < blandAfter {
			most := -eps
			for j := 0; j < bannedFrom; j++ {
				if r.inBasis[j] || r.cannotEnter(cost, j) {
					continue
				}
				if rc := r.reducedCost(cost, j); rc < most {
					most = rc
					enter = j
				}
			}
		} else {
			for j := 0; j < bannedFrom; j++ {
				if r.inBasis[j] || r.cannotEnter(cost, j) {
					continue
				}
				if r.reducedCost(cost, j) < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return iters, iterConverged
		}
		r.ftran(enter)
		leave := r.leavingRow()
		if leave < 0 {
			return iters, iterUnbounded
		}
		r.pivotUpdate(leave, enter)
	}
	return iters, iterStalled
}

// leavingRow is the ratio test over r.d: the row with the smallest ratio
// xB_i/d_i among d_i > eps, ties within eps broken by lowest basis index
// (Bland) — or Harris's row when r.harris is set. -1 means no row blocks.
func (r *revised) leavingRow() int {
	if r.harris {
		return r.harrisRow()
	}
	leave := -1
	best := math.Inf(1)
	for i := 0; i < r.f.m; i++ {
		if r.d[i] > eps {
			ratio := r.xB[i] / r.d[i]
			if ratio < best-eps || (ratio < best+eps && (leave < 0 || r.basis[i] < r.basis[leave])) {
				best = ratio
				leave = i
			}
		}
	}
	return leave
}

// harrisRow is Harris's two-pass ratio test. The first pass finds the
// longest step that leaves no basic value below −harrisSlack; the second
// takes the largest pivot element among the rows whose ratio fits in
// that step. It trades a little feasibility per step for pivots far from
// rounding size — the smallest-ratio rule can pick a d_i of 1e-9 against
// a column maximum of 1e7 when xB_i is rounding noise, and B⁻¹ is then
// garbage.
func (r *revised) harrisRow() int {
	const harrisSlack = feasTol / 10
	step := math.Inf(1)
	for i, d := range r.d {
		if d > eps {
			step = math.Min(step, (r.xB[i]+harrisSlack)/d)
		}
	}
	leave := -1
	for i, d := range r.d {
		if d > eps && r.xB[i]/d <= step && (leave < 0 || d > r.d[leave]) {
			leave = i
		}
	}
	return leave
}

// phase1 minimizes the sum of artificial variables to find a basic
// feasible solution.
func (r *revised) phase1(cap int) (iters int, out iterOutcome, feasible bool) {
	if r.f.nArt == 0 {
		return 0, iterConverged, true
	}
	cost1 := r.cost
	clear(cost1[:r.f.artBegin])
	for j := r.f.artBegin; j < r.f.n; j++ {
		cost1[j] = 1
	}
	iters, out = r.iterate(cost1, r.f.n, cap)
	if out == iterStalled {
		return iters, out, false
	}
	var artSum float64
	for i, j := range r.basis {
		if j >= r.f.artBegin {
			artSum += r.xB[i]
		}
	}
	if artSum > feasTol {
		return iters, out, false
	}
	r.driveOutArtificials()
	return iters, out, true
}

// driveOutArtificials pivots any artificial still in the basis (at value
// ~0 after a feasible phase 1) out, replacing it with a non-artificial
// column whose transformed coefficient on that row is nonzero. The pivot
// is degenerate — xB barely moves — but phase 2 then never needs to
// guard artificial rows.
func (r *revised) driveOutArtificials() {
	m := r.f.m
	for i := 0; i < m; i++ {
		if r.basis[i] < r.f.artBegin {
			continue
		}
		for j := 0; j < r.f.artBegin; j++ {
			if r.inBasis[j] {
				continue
			}
			// Row i of B⁻¹·A_j: one sparse dot against B⁻¹'s row i.
			var v float64
			idx, val := r.f.col(j)
			for e, k := range idx {
				v += r.binvT[int(k)*m+i] * val[e]
			}
			if math.Abs(v) > eps {
				r.ftran(j)
				r.pivotUpdate(i, j)
				break
			}
		}
	}
}

// certify checks the basis phase 2 converged on against the problem
// rather than trusting the pivots that reached it, with y = c_B·B⁻¹:
//
//   - primal: no basic value below -feasTol, and every normalized row's
//     residual b_i − Σ_j a_ij·x_j, summed from the basic columns (never
//     through B⁻¹; basic artificials count as zero), within
//     feasTol·(1+b_i);
//   - dual: every non-artificial column prices c_j − y·A_j ≥ −feasTol;
//   - gap: |c·x − y·b| ≤ feasTol·(1 + Σ|c_j·x_j| + Σ|y_i·b_i|).
//
// Together these make x optimal within feasTol by weak duality. It uses
// r.d, free once phase 2 has converged, for the residuals.
func (r *revised) certify(cost []float64) bool {
	f := &r.f
	res := r.d
	copy(res, f.b)
	var cx, cxAbs float64
	for i, j := range r.basis {
		if j >= f.artBegin {
			continue
		}
		x := r.xB[i]
		if x < -feasTol {
			return false
		}
		idx, val := f.col(j)
		for e, k := range idx {
			res[k] -= val[e] * x
		}
		cx += cost[j] * x
		cxAbs += math.Abs(cost[j] * x)
	}
	for i, v := range res {
		if math.Abs(v) > feasTol*(1+f.b[i]) {
			return false
		}
	}
	r.btran(cost)
	for j := 0; j < f.artBegin; j++ {
		if r.reducedCost(cost, j) < -feasTol {
			return false
		}
	}
	var yb, ybAbs float64
	for i, b := range f.b {
		yb += r.y[i] * b
		ybAbs += math.Abs(r.y[i] * b)
	}
	return math.Abs(cx-yb) <= feasTol*(1+cxAbs+ybAbs)
}

// workspace is the memory a chain of solves reuses: SolvePlacement's
// alternating rounds share one, a standalone solve gets a fresh one. It
// holds the sub-problem under construction and the solver state, so
// after the first x-LP and r-LP a round allocates only its results.
// Nothing in it outlives the chain, so a plan stays a pure function of
// its input.
type workspace struct {
	revised
	prob Problem
	rows [][]float64 // prob's constraint rows, kept across builds
}

// problem resets w's problem to nVars zero costs and no constraints.
func (w *workspace) problem(nVars, maxPivots int) *Problem {
	w.prob = Problem{C: zeroed(w.prob.C, nVars), Constraints: w.prob.Constraints[:0], MaxPivots: maxPivots}
	return &w.prob
}

// row returns a zeroed row for the next constraint appended to w's
// problem, reusing that constraint's row from the previous build.
func (w *workspace) row() []float64 {
	k := len(w.prob.Constraints)
	if k == len(w.rows) {
		w.rows = append(w.rows, nil)
	}
	w.rows[k] = zeroed(w.rows[k], len(w.prob.C))
	return w.rows[k]
}

// Solve runs the two-phase sparse revised simplex.
func (p *Problem) Solve() (Solution, error) {
	return new(workspace).solve(p)
}

// solve runs Solve on w's buffers; p may be w's own problem. A phase-2
// optimum that fails its certificate was reached through a pivot on a
// rounding-sized element, so the solve runs once more from the start
// with Harris's ratio test; the pivots of both runs count. A second
// failure is reported Stalled, so callers fall back to a known-safe plan.
func (w *workspace) solve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	sol, rejected := w.run(p, false)
	if rejected {
		retry, _ := w.run(p, true)
		retry.Iterations += sol.Iterations
		sol = retry
	}
	return sol, nil
}

// run is one two-phase solve of p with the given ratio test. rejected
// reports a phase-2 optimum that failed certify, returned as Stalled.
func (w *workspace) run(p *Problem, harris bool) (sol Solution, rejected bool) {
	r := &w.revised
	r.reset(p)
	r.harris = harris
	cap := p.pivotCap()
	iters1, out1, feasible := r.phase1(cap)
	if out1 == iterStalled {
		return Solution{Status: Stalled, Iterations: iters1}, false
	}
	if !feasible {
		return Solution{Status: Infeasible, Iterations: iters1}, false
	}
	cost2 := r.cost
	copy(cost2, p.C)
	clear(cost2[len(p.C):])
	iters2, out2 := r.iterate(cost2, r.f.artBegin, cap)
	sol.Iterations = iters1 + iters2
	switch out2 {
	case iterStalled:
		sol.Status = Stalled
		return sol, false
	case iterUnbounded:
		sol.Status = Unbounded
		return sol, false
	}
	if !r.certify(cost2) {
		sol.Status = Stalled
		return sol, true
	}
	sol.Status = Optimal
	x := make([]float64, len(p.C))
	for i, j := range r.basis {
		if j < r.f.nStruct {
			v := r.xB[i]
			if v < 0 && v > -feasTol {
				v = 0
			}
			x[j] = v
		}
	}
	sol.X = x
	var obj float64
	for i, c := range p.C {
		obj += c * x[i]
	}
	sol.Objective = obj
	return sol, false
}

// resized returns s with length n, reallocating only when s is too
// short; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is resized with every element zero.
func zeroed[T any](s []T, n int) []T {
	s = resized(s, n)
	clear(s)
	return s
}
