package lp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// reusedMatchesFresh reports whether ws, reused across earlier
// problems, solves p exactly as a fresh Solve does: the same error, or
// X and the objective equal bit for bit. Stale workspace buffers would
// show here.
func reusedMatchesFresh(ws *Workspace, p *Problem) bool {
	want, werr := Solve(p)
	got, gerr := ws.Solve(p)
	if werr != nil || gerr != nil {
		return fmt.Sprint(gerr) == fmt.Sprint(werr)
	}
	if len(got.X) != len(want.X) || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return false
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return false
		}
	}
	return true
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestSimpleEquality(t *testing.T) {
	// min x1 + 2 x2  s.t. x1 + x2 = 1  ⇒ x = (1, 0), obj 1.
	s := solveOK(t, &Problem{
		C: []float64{1, 2},
		A: [][]float64{{1, 1}},
		B: []float64{1},
	})
	if math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.X[1]) > 1e-9 {
		t.Errorf("X = %v, want [1 0]", s.X)
	}
	if math.Abs(s.Objective-1) > 1e-9 {
		t.Errorf("obj = %v, want 1", s.Objective)
	}
}

func TestTwoConstraints(t *testing.T) {
	// min 2x + 3y + z
	// s.t. x + y + z = 10
	//      x - y     = 2
	// Optimum puts weight on the cheap variable z: x=2, y=0, z=8 ⇒ 12.
	s := solveOK(t, &Problem{
		C: []float64{2, 3, 1},
		A: [][]float64{{1, 1, 1}, {1, -1, 0}},
		B: []float64{10, 2},
	})
	want := []float64{2, 0, 8}
	for i := range want {
		if math.Abs(s.X[i]-want[i]) > 1e-8 {
			t.Fatalf("X = %v, want %v", s.X, want)
		}
	}
	if math.Abs(s.Objective-12) > 1e-8 {
		t.Errorf("obj = %v, want 12", s.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// x - y = -3, x + y = 5 ⇒ x=1, y=4.
	s := solveOK(t, &Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, -1}, {1, 1}},
		B: []float64{-3, 5},
	})
	if math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.X[1]-4) > 1e-9 {
		t.Errorf("X = %v, want [1 4]", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x + y = 1 and x + y = 2 cannot both hold.
	_, err := Solve(&Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}, {1, 1}},
		B: []float64{1, 2},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleNegativity(t *testing.T) {
	// x = -1 has no solution with x >= 0.
	_, err := Solve(&Problem{
		C: []float64{1},
		A: [][]float64{{1}},
		B: []float64{-1},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x - y s.t. x - y = 0: x = y → ∞ drives the objective down.
	_, err := Solve(&Problem{
		C: []float64{-1, -1},
		A: [][]float64{{1, -1}},
		B: []float64{0},
	})
	if !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestRedundantRow(t *testing.T) {
	// Second row is 2x the first; solver must tolerate the redundancy.
	s := solveOK(t, &Problem{
		C: []float64{1, 2},
		A: [][]float64{{1, 1}, {2, 2}},
		B: []float64{1, 2},
	})
	if math.Abs(s.X[0]+s.X[1]-1) > 1e-8 {
		t.Errorf("constraint violated: X = %v", s.X)
	}
	if math.Abs(s.Objective-1) > 1e-8 {
		t.Errorf("obj = %v, want 1", s.Objective)
	}
}

// TestNearDependentRowDriveOut pins a regression for the phase-1→2
// drive-out pivot: the third row is a rounded combination of the first
// two (0.7·row0 + row1), so after phase 1 an artificial variable stays
// basic in a row holding only cancellation residue. The residue in the
// badly scaled columns sits just above the pivot tolerance; pivoting on
// the *first* such column instead of the largest-magnitude one divides
// the row by noise and returns a solution violating the constraints by
// O(1). Found by differential fuzzing against the fixed solver.
func TestNearDependentRowDriveOut(t *testing.T) {
	p := &Problem{
		C: []float64{0.2, 0.2, 0.7},
		A: [][]float64{
			{0.0003333333333333333, 6.666666666666667e-05, -6.666666666666666e+06},
			{2e+07, 0.9, 0.0006666666666666666},
			{2.0000000000233334e+07, 0.9000466666666667, -4.666666665999999e+06},
		},
		B: []float64{6e-05, 0.81, 0.810042},
	}
	s := solveOK(t, p)
	for i, row := range p.A {
		dot := 0.0
		for j := range row {
			dot += row[j] * s.X[j]
		}
		if math.Abs(dot-p.B[i]) > 1e-6*math.Max(1, math.Abs(p.B[i])) {
			t.Errorf("row %d violated: Ax = %v, b = %v (X = %v)", i, dot, p.B[i], s.X)
		}
	}
	for j, x := range s.X {
		if x < -1e-9 {
			t.Errorf("x[%d] = %v negative", j, x)
		}
	}
}

// TestRedundantRowsProperty solves randomized feasible problems with
// linearly dependent rows appended — duplicates, scaled copies (down to
// near the pivot tolerance), and row sums. Redundant rows leave
// artificial variables basic at zero after phase 1, exercising the
// drive-out transition: its pivot must come from the largest-magnitude
// eligible column, or a near-eps pivot element scales the row by ~1/eps
// and corrupts phase 2. One Workspace, reused across every problem in
// order, must match a fresh Solve on each.
func TestRedundantRowsProperty(t *testing.T) {
	var ws Workspace
	f := func(seed uint64) bool {
		s := seed | 1
		next := func() float64 { // xorshift64, uniform in [0, 1)
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s>>11) / (1 << 53)
		}
		n := 2 + int(next()*3) // 2–4 variables
		m := 1 + int(next()*2) // 1–2 independent rows
		if m >= n {
			m = n - 1
		}
		// Feasible by construction: b = A·x* for a nonnegative x*.
		xstar := make([]float64, n)
		for j := range xstar {
			if next() < 0.3 {
				xstar[j] = 0 // degenerate vertices too
			} else {
				xstar[j] = next() * 5
			}
		}
		base := &Problem{C: make([]float64, n)}
		for j := range base.C {
			base.C[j] = next() // c ≥ 0 keeps the problem bounded
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			bi := 0.0
			for j := range row {
				row[j] = 2*next() - 1
				bi += row[j] * xstar[j]
			}
			base.A = append(base.A, row)
			base.B = append(base.B, bi)
		}
		want, err := Solve(base)
		if err != nil || !reusedMatchesFresh(&ws, base) {
			return false
		}

		// Append dependent rows: an exact duplicate, a copy scaled down
		// near the pivot tolerance, and the sum of all base rows.
		aug := &Problem{C: base.C, A: append([][]float64{}, base.A...), B: append([]float64{}, base.B...)}
		addScaled := func(src int, scale float64) {
			row := make([]float64, n)
			for j := range row {
				row[j] = scale * base.A[src][j]
			}
			aug.A = append(aug.A, row)
			aug.B = append(aug.B, scale*base.B[src])
		}
		addScaled(0, 1)
		addScaled(0, 3e-9)
		sum := make([]float64, n)
		sb := 0.0
		for i := range base.A {
			for j := range sum {
				sum[j] += base.A[i][j]
			}
			sb += base.B[i]
		}
		aug.A = append(aug.A, sum)
		aug.B = append(aug.B, sb)

		if !reusedMatchesFresh(&ws, aug) {
			t.Logf("seed %d: reused workspace differs from a fresh solve", seed)
			return false
		}
		got, err := Solve(aug)
		if err != nil {
			t.Logf("seed %d: augmented solve failed: %v", seed, err)
			return false
		}
		for j, x := range got.X {
			if x < -1e-9 {
				t.Logf("seed %d: x[%d] = %v negative", seed, j, x)
				return false
			}
		}
		for i, row := range aug.A {
			dot := 0.0
			for j := range row {
				dot += row[j] * got.X[j]
			}
			if math.Abs(dot-aug.B[i]) > 1e-6*math.Max(1, math.Abs(aug.B[i])) {
				t.Logf("seed %d: row %d violated: %v != %v", seed, i, dot, aug.B[i])
				return false
			}
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*math.Max(1, math.Abs(want.Objective)) {
			t.Logf("seed %d: objective %v, want %v", seed, got.Objective, want.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDegenerate(t *testing.T) {
	// A degenerate vertex (b has a zero) must not cycle thanks to Bland's
	// rule.
	s := solveOK(t, &Problem{
		C: []float64{1, 1, 1},
		A: [][]float64{{1, 1, 0}, {0, 1, 1}},
		B: []float64{1, 0},
	})
	if math.Abs(s.Objective-1) > 1e-8 {
		t.Errorf("obj = %v, want 1", s.Objective)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Problem{
		{C: nil},
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}},
		{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestOffloadShape solves the exact structure used by the carrier offload
// algorithm (Eq. 1 of the paper) and checks the invariants the engine
// relies on: the fractions sum to one and the consumption ratio matches.
func TestOffloadShape(t *testing.T) {
	// Per-bit costs (J/bit): active, passive, backscatter at 1 Mbps,
	// matching the calibrated Braidio power table (92/87.6 mW active,
	// 127.3 mW / 50 µW passive, 36.4 µW / 129 mW backscatter).
	T := []float64{92e-9, 127.3e-9, 36.4e-12} // tx
	R := []float64{87.6e-9, 50e-12, 129e-9}   // rx
	ratio := 100.0                            // E1:E2 = 100:1
	// Constraint: sum p_i (T_i - ratio*R_i) = 0, sum p_i = 1.
	a := make([]float64, 3)
	c := make([]float64, 3)
	for i := range a {
		a[i] = T[i] - ratio*R[i]
		c[i] = T[i] + R[i]
	}
	s := solveOK(t, &Problem{
		C: c,
		A: [][]float64{{1, 1, 1}, a},
		B: []float64{1, 0},
	})
	sum := s.X[0] + s.X[1] + s.X[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("fractions sum to %v", sum)
	}
	var tx, rx float64
	for i := range s.X {
		tx += s.X[i] * T[i]
		rx += s.X[i] * R[i]
	}
	if math.Abs(tx/rx-ratio)/ratio > 1e-4 {
		t.Errorf("consumption ratio = %v, want %v", tx/rx, ratio)
	}
	// At 100:1 the optimum should mix passive and backscatter only
	// (line BC of Fig. 9), never active.
	if s.X[0] > 1e-9 {
		t.Errorf("active fraction = %v, want 0", s.X[0])
	}
}

// TestAgainstVertexEnumeration compares the simplex optimum with exact
// enumeration of the basic feasible solutions of random offload-shaped
// problems. With three variables and the two constraints Σp = 1 and
// Σ a·p = 0, every vertex has support of at most two variables, so the
// optimum is computable in closed form. One Workspace, reused across
// every problem in order, must match a fresh Solve on each.
func TestAgainstVertexEnumeration(t *testing.T) {
	var ws Workspace
	f := func(seedT1, seedT2, seedT3, seedR1, seedR2, seedR3, seedRatio uint8) bool {
		T := []float64{1 + float64(seedT1), 1 + float64(seedT2), 1 + float64(seedT3)}
		R := []float64{1 + float64(seedR1), 1 + float64(seedR2), 1 + float64(seedR3)}
		ratio := 0.1 + float64(seedRatio)/16
		a := make([]float64, 3)
		c := make([]float64, 3)
		for i := range a {
			a[i] = T[i] - ratio*R[i]
			c[i] = T[i] + R[i]
		}
		best := math.Inf(1)
		// Single-variable supports: p_i = 1 needs a_i = 0.
		for i := 0; i < 3; i++ {
			if math.Abs(a[i]) < 1e-12 && c[i] < best {
				best = c[i]
			}
		}
		// Two-variable supports {i, j}: p_i = a_j / (a_j - a_i).
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				den := a[j] - a[i]
				if math.Abs(den) < 1e-12 {
					continue
				}
				pi := a[j] / den
				pj := 1 - pi
				if pi < -1e-12 || pj < -1e-12 {
					continue
				}
				if obj := pi*c[i] + pj*c[j]; obj < best {
					best = obj
				}
			}
		}
		p := &Problem{C: c, A: [][]float64{{1, 1, 1}, a}, B: []float64{1, 0}}
		if !reusedMatchesFresh(&ws, p) {
			return false
		}
		sol, err := Solve(p)
		if err != nil {
			return errors.Is(err, ErrInfeasible) && math.IsInf(best, 1)
		}
		if math.IsInf(best, 1) {
			return false // simplex found a solution the enumeration missed
		}
		return math.Abs(sol.Objective-best) <= 1e-6*math.Max(1, best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveOffloadShape(b *testing.B) {
	p := &Problem{
		C: []float64{123e-9, 127.35e-9, 129.04e-9},
		A: [][]float64{{1, 1, 1}, {57e-9, 127.25e-9, -1.25e-9}},
		B: []float64{1, 0},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
