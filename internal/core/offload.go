// Package core implements the paper's primary contribution: the
// energy-aware carrier offload layer of §4. Given the characterized link
// modes at the current distance (their per-bit costs T_i and R_i at both
// endpoints) and the two endpoints' energy budgets E1 and E2, it decides
// what fraction of traffic to carry in each mode so the endpoints spend
// energy in proportion to what they have — and it runs the resulting
// braided schedule against the batteries, including mode-switch
// overheads.
//
// Two solvers are provided and cross-checked in tests:
//
//   - SolveEq1 is the paper's formulation (Eq. 1) as a linear program:
//     minimize Σ p_i (T_i + R_i) subject to Σ p_i = 1 and
//     Σ p_i T_i / Σ p_i R_i = E1/E2. Infeasible when the battery ratio
//     lies outside the span of the available modes' cost ratios.
//
//   - Optimize maximizes delivered bits min(E1/T̄, E2/R̄) directly by
//     enumerating the candidate vertices and ratio-matched edge points.
//     It always has a solution and coincides with SolveEq1 whenever the
//     power-proportional constraint is feasible (power-proportionality
//     and bit-maximization agree in the interior — the paper's point P
//     on line BC of Fig. 9).
//
// Every planner runs Optimize's closed form: Optimize, OptimizeInto,
// the batch arena's OptimizeBatch and the braid's default epochs share
// one enumeration behind the same input checks, so they agree bit for
// bit. SolveEq1 is the reference that the
// property tests and the ablation-solver table check it against. Only a
// member with a rate floor solves an LP: OptimizeQoS (see QoSScratch).
//
// Fractions are fractions of delivered bits, which at equal mode bitrates
// equal the paper's fractions of time.
package core

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/lp"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Allocation is the output of the offload optimizer.
type Allocation struct {
	// Links are the modes considered, as characterized by the PHY.
	Links []phy.ModeLink
	// P are the bit fractions per link, aligned with Links, summing to 1.
	P []float64
	// TX and RX are the mixture's average per-bit costs at each end.
	TX, RX units.JoulesPerBit
	// Bits is the total deliverable payload bits before one endpoint
	// dies, for the budgets passed to Optimize.
	Bits float64
}

// Fraction returns the allocation fraction for a mode (zero if the mode
// is not in the allocation).
func (a *Allocation) Fraction(m phy.Mode) float64 {
	for i, l := range a.Links {
		if l.Mode == m {
			return a.P[i]
		}
	}
	return 0
}

// Dominant returns the mode carrying the largest fraction.
func (a *Allocation) Dominant() phy.Mode {
	best, bestP := phy.ModeActive, -1.0
	for i, l := range a.Links {
		if a.P[i] > bestP {
			best, bestP = l.Mode, a.P[i]
		}
	}
	return best
}

// ErrNoLinks reports that no mode is available (out of range).
var ErrNoLinks = errors.New("core: no links available")

// validateInputs rejects an empty row, nonsense budgets and dead links,
// in that order.
func validateInputs(links []phy.ModeLink, e1, e2 units.Joule) error {
	if len(links) == 0 {
		return ErrNoLinks
	}
	if err := validateBudgets(e1, e2); err != nil {
		return err
	}
	return validateRow(links)
}

// validateBudgets rejects budgets that are not positive. The negated
// comparisons reject NaN too, which fails every ordered comparison.
func validateBudgets(e1, e2 units.Joule) error {
	if !(e1 > 0) || !(e2 > 0) {
		return fmt.Errorf("core: non-positive budgets %v/%v", float64(e1), float64(e2))
	}
	return nil
}

// validateRow rejects a link whose per-bit cost is not positive and
// finite. A braid run checks its row once, since the row does not change
// between epochs; budgets change every epoch.
func validateRow(links []phy.ModeLink) error {
	for _, l := range links {
		if !(l.T > 0) || !(l.R > 0) || math.IsInf(float64(l.T), 1) || math.IsInf(float64(l.R), 1) {
			return fmt.Errorf("core: link %v has unusable costs %v/%v", l.Mode, l.T, l.R)
		}
	}
	return nil
}

// mixture computes the average costs of a fraction vector.
func mixture(links []phy.ModeLink, p []float64) (tx, rx units.JoulesPerBit) {
	var t, r float64
	for i, l := range links {
		t += p[i] * float64(l.T)
		r += p[i] * float64(l.R)
	}
	return units.JoulesPerBit(t), units.JoulesPerBit(r)
}

// bitsFor returns deliverable bits for a mixture under budgets.
// The builtin min follows math.Min's NaN and signed-zero rules, and
// unlike math.Min it inlines.
func bitsFor(tx, rx units.JoulesPerBit, e1, e2 units.Joule) float64 {
	return min(float64(e1)/float64(tx), float64(e2)/float64(rx))
}

// Optimize returns the bit-maximizing allocation for the given links and
// budgets (E1 at the transmitter, E2 at the receiver).
//
// The objective min(E1/T̄, E2/R̄) is quasi-concave over the simplex, so
// the optimum is either a pure mode or a two-mode mix whose consumption
// ratio exactly matches E1:E2; Optimize enumerates all of them.
func Optimize(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	a := &Allocation{}
	if err := optimizeInto(a, links, e1, e2); err != nil {
		return nil, err
	}
	return a, nil
}

// OptimizeInto is Optimize solving into caller-owned storage: dst's P
// slice is resized in place, so a caller reusing one dst solves without
// heap allocation. net's planner calls this with persistent per-slot dst
// values, and the benchmark's core.optimize_ns probe times it. scratch
// is ignored; it stays because that probe calls this five-argument form.
func OptimizeInto(dst *Allocation, scratch []float64, links []phy.ModeLink, e1, e2 units.Joule) error {
	_ = scratch
	return optimizeInto(dst, links, e1, e2)
}

// optimizeInto is Optimize solving into caller-owned storage: dst's P
// slice is resized in place. On error dst is left unchanged.
func optimizeInto(dst *Allocation, links []phy.ModeLink, e1, e2 units.Joule) error {
	if err := validateInputs(links, e1, e2); err != nil {
		return err
	}
	solveInto(dst, links, e1, e2)
	return nil
}

// solveInto runs enumerateRow into dst, resizing dst's P slice in place,
// for inputs the caller has validated: a non-empty row of positive,
// finite costs and positive budgets. RunInto's default path calls it
// every epoch after checking the budgets, and the row once per run.
func solveInto(dst *Allocation, links []phy.ModeLink, e1, e2 units.Joule) {
	p := dst.P
	if cap(p) < len(links) {
		p = make([]float64, len(links))
	}
	p = p[:len(links)]
	dst.TX, dst.RX, dst.Bits = enumerateRow(links, e1, e2, p)
	dst.Links, dst.P = links, p
}

// optimizeRow is the validation and enumeration behind OptimizeBatch: it
// checks the budgets and the row as validateInputs does, then runs
// enumerateRow.
func optimizeRow(links []phy.ModeLink, e1, e2 units.Joule, p []float64) (units.JoulesPerBit, units.JoulesPerBit, float64, error) {
	if err := validateInputs(links, e1, e2); err != nil {
		return 0, 0, 0, err
	}
	tx, rx, bits := enumerateRow(links, e1, e2, p)
	return tx, rx, bits, nil
}

// enumerateRow is the one enumeration behind every default solve
// (Optimize, OptimizeInto, OptimizeBatch and the braid's epochs): for
// validated inputs it writes the winning fractions into p (len(links)
// long) and returns the mixture's per-bit costs and deliverable bits. It
// keeps no reference to links or p, so a caller's row stays wherever
// the caller put it.
//
// The enumeration tracks the winner by candidate index instead of
// materializing each candidate's fraction vector. This is bit-identical
// to mixing the full vector: a pure mode's mixture is exactly (T_i, R_i)
// and a two-mode mix has exactly two nonzero terms, and in IEEE
// arithmetic 0·x = +0 and y + (+0) = y exactly (all costs are positive),
// so the zero terms of the generic dot product never change a bit.
// Candidates run pure modes first, then pairs i<j, and only a strict
// improvement replaces the winner. The hub's golden metrics pin this
// equivalence.
func enumerateRow(links []phy.ModeLink, e1, e2 units.Joule, p []float64) (units.JoulesPerBit, units.JoulesPerBit, float64) {
	ratio := float64(e1) / float64(e2)

	bestI, bestJ := -1, -1
	bestQ := 0.0
	var bestTX, bestRX units.JoulesPerBit
	bestBits := -1.0
	// Pure modes.
	for i := range links {
		bits := bitsFor(links[i].T, links[i].R, e1, e2)
		if bits > bestBits {
			bestI, bestJ = i, -1
			bestTX, bestRX, bestBits = links[i].T, links[i].R, bits
		}
	}
	// Ratio-matched two-mode mixes: solve
	// (q·T_i + (1−q)·T_j) / (q·R_i + (1−q)·R_j) = ratio for q ∈ (0,1).
	for i := range links {
		for j := i + 1; j < len(links); j++ {
			ai := float64(links[i].T) - ratio*float64(links[i].R)
			aj := float64(links[j].T) - ratio*float64(links[j].R)
			den := ai - aj
			if den == 0 {
				continue
			}
			q := -aj / den
			if q <= 0 || q >= 1 {
				continue
			}
			qj := 1 - q
			var t, r float64
			t += q * float64(links[i].T)
			t += qj * float64(links[j].T)
			r += q * float64(links[i].R)
			r += qj * float64(links[j].R)
			tx, rx := units.JoulesPerBit(t), units.JoulesPerBit(r)
			bits := bitsFor(tx, rx, e1, e2)
			if bits > bestBits {
				bestI, bestJ, bestQ = i, j, q
				bestTX, bestRX, bestBits = tx, rx, bits
			}
		}
	}
	for k := range p {
		p[k] = 0
	}
	if bestJ < 0 {
		p[bestI] = 1
	} else {
		p[bestI], p[bestJ] = bestQ, 1-bestQ
	}
	return bestTX, bestRX, bestBits
}

// scaleRowMax normalizes a matrix row by its largest magnitude. Per-bit
// costs sit many orders of magnitude below 1, which puts the Eq. (1)
// proportionality row's entries near the simplex solver's absolute
// pivot tolerance and lets a near-eps pivot corrupt the well-scaled
// Σp = 1 row. Both the row (= 0) and the objective are invariant under
// positive scaling, so SolveEq1 normalizes each by its largest
// magnitude.
func scaleRowMax(row []float64) {
	maxAbs := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0 {
		for i := range row {
			row[i] /= maxAbs
		}
	}
}

// SolveEq1 solves the paper's Eq. 1 exactly via the simplex solver:
// minimize total per-bit cost subject to power-proportional consumption.
// It returns lp.ErrInfeasible when the battery ratio is outside the
// achievable span (the regime where Optimize clamps to a pure mode).
func SolveEq1(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	if err := validateInputs(links, e1, e2); err != nil {
		return nil, err
	}
	ratio := float64(e1) / float64(e2)
	n := len(links)
	c := make([]float64, n)
	aRow := make([]float64, n)
	ones := make([]float64, n)
	for i, l := range links {
		c[i] = float64(l.T) + float64(l.R)
		aRow[i] = float64(l.T) - ratio*float64(l.R)
		ones[i] = 1
	}
	scaleRowMax(aRow)
	scaleRowMax(c)
	sol, err := lp.Solve(&lp.Problem{C: c, A: [][]float64{ones, aRow}, B: []float64{1, 0}})
	if err != nil {
		return nil, err
	}
	alloc := &Allocation{Links: links, P: sol.X}
	alloc.TX, alloc.RX = mixture(links, sol.X)
	alloc.Bits = bitsFor(alloc.TX, alloc.RX, e1, e2)
	return alloc, nil
}

// BestSingleMode returns the pure-mode allocation maximizing bits — the
// Fig. 16 baseline ("the best of the three modes in isolation").
func BestSingleMode(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
	if err := validateInputs(links, e1, e2); err != nil {
		return nil, err
	}
	best := &Allocation{Links: links, P: make([]float64, len(links)), Bits: -1}
	for i := range links {
		bits := bitsFor(links[i].T, links[i].R, e1, e2)
		if bits > best.Bits {
			for j := range best.P {
				best.P[j] = 0
			}
			best.P[i] = 1
			best.TX, best.RX, best.Bits = links[i].T, links[i].R, bits
		}
	}
	return best, nil
}
