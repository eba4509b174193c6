// Package lp implements a small dense linear-program solver. Through
// core.SolveEq1 it solves the mode-fraction program of Eq. (1) in the
// paper: the reference that the property tests and the ablation-solver
// table check the closed-form optimizer against. No planner runs it.
//
// The solver handles problems in standard form:
//
//	minimize    cᵀx
//	subject to  A x = b,  x ≥ 0
//
// using two-phase primal simplex with Bland's rule (which guarantees
// termination). The offload problem has three variables and two equality
// constraints, so numerical performance is a non-issue; the implementation
// favors clarity and robustness over speed.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Problem is a linear program in standard equality form.
type Problem struct {
	// C is the cost vector (length n).
	C []float64
	// A is the constraint matrix (m rows of length n).
	A [][]float64
	// B is the right-hand side (length m). Entries may be negative; the
	// solver normalizes signs internally.
	B []float64
}

// Solution is the result of solving a Problem.
type Solution struct {
	// X is the optimal point (length n).
	X []float64
	// Objective is cᵀx at the optimum.
	Objective float64
}

// Errors returned by Solve.
var (
	// ErrInfeasible reports that no x ≥ 0 satisfies Ax = b.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded reports that the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
)

const eps = 1e-9

// Validate checks the problem dimensions.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: empty cost vector")
	}
	if len(p.A) != len(p.B) {
		return fmt.Errorf("lp: %d constraint rows but %d right-hand sides", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	return nil
}

// tableau is a simplex tableau with an explicit basis.
type tableau struct {
	a     [][]float64 // m x n constraint coefficients
	b     []float64   // m right-hand side
	c     []float64   // n reduced-ish cost vector (original costs)
	basis []int       // m basic variable indices
	m, n  int
}

// pivot performs a pivot bringing column col into the basis at row.
func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	for j := 0; j < t.n; j++ {
		t.a[row][j] /= p
	}
	t.b[row] /= p
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
}

// reducedCosts computes the simplex multipliers and the reduced cost of
// each column for the current basis, assuming the tableau rows have been
// kept in canonical form (basic columns are unit vectors).
func (t *tableau) reducedCosts() []float64 {
	r := make([]float64, t.n)
	copy(r, t.c)
	for i, bi := range t.basis {
		if bi < 0 {
			continue // redundant zeroed row
		}
		cb := t.c[bi]
		if cb == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			r[j] -= cb * t.a[i][j]
		}
	}
	return r
}

// iterate runs primal simplex with Bland's rule until optimal or
// unbounded.
func (t *tableau) iterate() error {
	for {
		r := t.reducedCosts()
		// Bland's rule: entering variable is the lowest-index column with
		// a negative reduced cost.
		col := -1
		for j := 0; j < t.n; j++ {
			if r[j] < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Ratio test, again lowest index on ties (Bland).
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][col] > eps {
				ratio := t.b[i] / t.a[i][col]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (row < 0 || t.basis[i] < t.basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return ErrUnbounded
		}
		t.pivot(row, col)
	}
}

// Solve solves the linear program. It returns ErrInfeasible or
// ErrUnbounded when appropriate.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	m := len(p.B)

	// Phase 1: introduce one artificial variable per row and minimize
	// their sum. Normalize b ≥ 0 first.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := range a {
		a[i] = make([]float64, n+m)
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			a[i][j] = sign * p.A[i][j]
		}
		a[i][n+i] = 1
		b[i] = sign * p.B[i]
	}
	c1 := make([]float64, n+m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		c1[n+i] = 1
		basis[i] = n + i
	}
	t := &tableau{a: a, b: b, c: c1, basis: basis, m: m, n: n + m}
	if err := t.iterate(); err != nil {
		// Phase 1 cannot be unbounded (costs are nonnegative), so any
		// error here is a genuine solver failure.
		return nil, err
	}
	phase1 := 0.0
	for i, bi := range t.basis {
		phase1 += t.c[bi] * t.b[i]
	}
	if phase1 > 1e-7 {
		return nil, ErrInfeasible
	}
	// Drive any artificial variables out of the basis (degenerate case).
	// Pivot on the largest-magnitude eligible column, not the first one
	// past the tolerance: a pivot element barely above eps divides the
	// whole row by a near-zero value, blowing its entries up by ~1/eps
	// and corrupting the well-scaled rows phase 2 then iterates on.
	for i := 0; i < m; i++ {
		if t.basis[i] >= n {
			col, colAbs := -1, eps
			for j := 0; j < n; j++ {
				if a := math.Abs(t.a[i][j]); a > colAbs {
					col, colAbs = j, a
				}
			}
			if col >= 0 {
				t.pivot(i, col)
			} else {
				// Redundant row: zero it so it cannot affect phase 2.
				for j := range t.a[i] {
					t.a[i][j] = 0
				}
				t.b[i] = 0
			}
		}
	}

	// Phase 2: drop the artificial columns (all non-basic now, except in
	// redundant zero rows marked inert above) and minimize the real
	// objective over the original variables.
	for i := range t.a {
		t.a[i] = t.a[i][:n]
	}
	t.n = n
	t.c = make([]float64, n)
	copy(t.c, p.C)
	for i, bi := range t.basis {
		if bi >= n {
			// Redundant zeroed row: mark it inert. The row is entirely
			// zero, so it never participates in pivots and contributes
			// nothing to the solution.
			t.basis[i] = -1
		}
	}
	if err := t.iterate(); err != nil {
		return nil, err
	}
	if sol, err := extract(p, t.basis); err == nil {
		return sol, nil
	}
	// Numerically singular basis (should not happen for a basis simplex
	// just pivoted through): fall back to the tableau's accumulated
	// values.
	x := make([]float64, n)
	for i, bi := range t.basis {
		if bi >= 0 && bi < n && t.b[i] > eps {
			x[bi] = t.b[i]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Solution{X: x, Objective: obj}, nil
}

// extract reconstructs the solution a basis determines directly from the
// original problem data: it collects the basic columns (ascending) and
// the active rows (rows not zeroed as redundant, ascending), solves the
// square system A_B·x_B = b_B by Gaussian elimination with partial
// pivoting, and prices the objective off the original costs. The
// arithmetic depends only on (p, the basis *set*) — never on the pivot
// path that reached the basis — so the answer carries none of the
// rounding the tableau accumulated along that path.
func extract(p *Problem, basis []int) (*Solution, error) {
	n := len(p.C)
	var rows, cols []int
	for i, bi := range basis {
		if bi < 0 {
			continue // redundant zeroed row
		}
		if bi >= n {
			return nil, errors.New("lp: artificial variable left in basis")
		}
		rows = append(rows, i)
		cols = append(cols, bi)
	}
	sort.Ints(cols)
	for i := 1; i < len(cols); i++ {
		if cols[i] == cols[i-1] {
			return nil, errors.New("lp: duplicate basic column")
		}
	}
	k := len(rows)
	// Augmented system [A_B | b] over the original data, rows and basic
	// columns both in ascending order.
	m := make([][]float64, k)
	for r, ri := range rows {
		m[r] = make([]float64, k+1)
		for c, cj := range cols {
			m[r][c] = p.A[ri][cj]
		}
		m[r][k] = p.B[ri]
	}
	// Gaussian elimination with partial pivoting.
	for c := 0; c < k; c++ {
		piv := c
		for r := c + 1; r < k; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[piv][c]) {
				piv = r
			}
		}
		if math.Abs(m[piv][c]) <= 1e-300 {
			return nil, errors.New("lp: singular basis")
		}
		m[c], m[piv] = m[piv], m[c]
		for r := c + 1; r < k; r++ {
			f := m[r][c] / m[c][c]
			if f == 0 {
				continue
			}
			for j := c; j <= k; j++ {
				m[r][j] -= f * m[c][j]
			}
		}
	}
	x := make([]float64, n)
	for c := k - 1; c >= 0; c-- {
		v := m[c][k]
		for j := c + 1; j < k; j++ {
			v -= m[c][j] * x[cols[j]]
		}
		v /= m[c][c]
		if v > eps {
			x[cols[c]] = v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Solution{X: x, Objective: obj}, nil
}
