package lp

import "math"

// refSolve is the revised simplex as it stood before the flat sparse
// form, the reused workspace, the gathered BTRAN and the pricing skip
// rule — kept verbatim (identifiers renamed) as the differential oracle
// those changes are held to: Solve must reproduce its status, pivot
// count, X and objective bit for bit. It has no certificate.

type refForm struct {
	m        int // constraint rows
	n        int // total columns: structural + slack + artificial
	nStruct  int
	artBegin int // first artificial column
	nArt     int
	colIdx   [][]int32   // row indices of nonzeros, per column
	colVal   [][]float64 // values of nonzeros, per column
	b        []float64   // normalized RHS, all ≥ 0
	basis    []int       // initial basic column per row (slack or artificial)
}

func newRefForm(p *Problem) *refForm {
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
	f := &refForm{
		m:        m,
		n:        cols,
		nStruct:  n,
		artBegin: n + nSlack,
		nArt:     nArt,
		colIdx:   make([][]int32, cols),
		colVal:   make([][]float64, cols),
		b:        make([]float64, m),
		basis:    make([]int, m),
	}
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
				f.colIdx[j] = append(f.colIdx[j], int32(i))
				f.colVal[j] = append(f.colVal[j], sign*v)
			}
		}
		f.b[i] = b
		switch op {
		case LE:
			f.colIdx[slackCol] = []int32{int32(i)}
			f.colVal[slackCol] = []float64{1}
			f.basis[i] = slackCol
			slackCol++
		case GE:
			f.colIdx[slackCol] = []int32{int32(i)}
			f.colVal[slackCol] = []float64{-1} // surplus
			slackCol++
			f.colIdx[artCol] = []int32{int32(i)}
			f.colVal[artCol] = []float64{1}
			f.basis[i] = artCol
			artCol++
		case EQ:
			f.colIdx[artCol] = []int32{int32(i)}
			f.colVal[artCol] = []float64{1}
			f.basis[i] = artCol
			artCol++
		}
	}
	return f
}

const (
	refRefactorEvery = 128
	refBlandAfter    = 5000
)

type refRevised struct {
	f       *refForm
	binvT   []float64
	xB      []float64
	basis   []int
	inBasis []bool
	y       []float64
	d       []float64
	updates int
}

func newRefRevised(f *refForm) *refRevised {
	m := f.m
	r := &refRevised{
		f:       f,
		binvT:   make([]float64, m*m),
		xB:      append([]float64(nil), f.b...),
		basis:   append([]int(nil), f.basis...),
		inBasis: make([]bool, f.n),
		y:       make([]float64, m),
		d:       make([]float64, m),
	}
	for i := 0; i < m; i++ {
		r.binvT[i*m+i] = 1
	}
	for _, j := range r.basis {
		r.inBasis[j] = true
	}
	return r
}

func (r *refRevised) ftran(j int) {
	m := r.f.m
	d := r.d
	for i := range d {
		d[i] = 0
	}
	idx, val := r.f.colIdx[j], r.f.colVal[j]
	for e, k := range idx {
		v := val[e]
		col := r.binvT[int(k)*m : int(k)*m+m]
		for i, c := range col {
			d[i] += v * c
		}
	}
}

func (r *refRevised) btran(cost []float64) {
	m := r.f.m
	cb := make([]float64, m)
	anyNZ := false
	for i, bj := range r.basis {
		c := cost[bj]
		cb[i] = c
		if c != 0 {
			anyNZ = true
		}
	}
	if !anyNZ {
		for k := range r.y {
			r.y[k] = 0
		}
		return
	}
	for k := 0; k < m; k++ {
		row := r.binvT[k*m : k*m+m]
		var s float64
		for i, c := range cb {
			if c != 0 {
				s += c * row[i]
			}
		}
		r.y[k] = s
	}
}

func (r *refRevised) reducedCost(cost []float64, j int) float64 {
	rc := cost[j]
	idx, val := r.f.colIdx[j], r.f.colVal[j]
	for e, k := range idx {
		rc -= r.y[k] * val[e]
	}
	return rc
}

func (r *refRevised) pivotUpdate(leave, enter int) {
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
	if r.updates >= refRefactorEvery {
		r.refactor()
	}
}

func (r *refRevised) refactor() {
	m := r.f.m
	bm := make([][]float64, m)
	for i := range bm {
		bm[i] = make([]float64, m)
	}
	for k, j := range r.basis {
		idx, val := r.f.colIdx[j], r.f.colVal[j]
		for e, row := range idx {
			bm[row][k] = val[e]
		}
	}
	inv := make([][]float64, m)
	for i := range inv {
		inv[i] = make([]float64, m)
		inv[i][i] = 1
	}
	for col := 0; col < m; col++ {
		piv := col
		for i := col + 1; i < m; i++ {
			if math.Abs(bm[i][col]) > math.Abs(bm[piv][col]) {
				piv = i
			}
		}
		if math.Abs(bm[piv][col]) <= eps {
			return
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
			s = 0
		}
		r.xB[i] = s
	}
	r.updates = 0
}

func (r *refRevised) iterate(cost []float64, bannedFrom int, cap int) (iters int, out iterOutcome) {
	for iters = 0; iters < cap; iters++ {
		r.btran(cost)
		enter := -1
		if iters < refBlandAfter {
			most := -eps
			for j := 0; j < bannedFrom; j++ {
				if r.inBasis[j] {
					continue
				}
				if rc := r.reducedCost(cost, j); rc < most {
					most = rc
					enter = j
				}
			}
		} else {
			for j := 0; j < bannedFrom; j++ {
				if r.inBasis[j] {
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
		if leave < 0 {
			return iters, iterUnbounded
		}
		r.pivotUpdate(leave, enter)
	}
	return iters, iterStalled
}

func (r *refRevised) phase1(cap int) (iters int, out iterOutcome, feasible bool) {
	if r.f.nArt == 0 {
		return 0, iterConverged, true
	}
	cost1 := make([]float64, r.f.n)
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

func (r *refRevised) driveOutArtificials() {
	m := r.f.m
	for i := 0; i < m; i++ {
		if r.basis[i] < r.f.artBegin {
			continue
		}
		for j := 0; j < r.f.artBegin; j++ {
			if r.inBasis[j] {
				continue
			}
			var v float64
			idx, val := r.f.colIdx[j], r.f.colVal[j]
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

func refSolve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	f := newRefForm(p)
	r := newRefRevised(f)
	cap := p.pivotCap()
	iters1, out1, feasible := r.phase1(cap)
	if out1 == iterStalled {
		return Solution{Status: Stalled, Iterations: iters1}, nil
	}
	if !feasible {
		return Solution{Status: Infeasible, Iterations: iters1}, nil
	}
	cost2 := make([]float64, f.n)
	copy(cost2, p.C)
	iters2, out2 := r.iterate(cost2, f.artBegin, cap)
	sol := Solution{Iterations: iters1 + iters2}
	switch out2 {
	case iterStalled:
		sol.Status = Stalled
		return sol, nil
	case iterUnbounded:
		sol.Status = Unbounded
		return sol, nil
	}
	sol.Status = Optimal
	x := make([]float64, len(p.C))
	for i, j := range r.basis {
		if j < f.nStruct {
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
	return sol, nil
}
