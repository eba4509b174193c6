package core

import (
	"fmt"
	"math"

	"braidio/internal/lp"
	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// BatchScratch is the shared per-round column arena of the batched
// columnar solver: one flat structure-of-arrays workspace a round owner
// (net's round engine, the serve daemon's epoch planner) resets once
// per round instead of round-tripping M per-member buffers through a
// pool. Every per-slot array is either a scalar column (one entry per
// member) or a stride-phy.NumModes row block, so batch kernels iterate
// linearly and parallel workers write only index-owned slots — the same
// determinism discipline as internal/par's other users: results are
// bit-identical at any worker count.
//
// A BatchScratch is not safe for concurrent use by multiple rounds; the
// kernels below parallelize internally across slots.
type BatchScratch struct {
	// Cols is the structure-of-arrays link characterization the column
	// kernels (OptimizeBatch, SolveEq1Batch) read.
	Cols phy.LinkColumns
	// Dists is the distance column the characterization consumes.
	Dists []units.Meter
	// Links holds per-slot canonical []ModeLink rows — the AoS twin of
	// Cols for consumers (the braid's allocation memo) that compare
	// slice identity against linkcache's canonical slices.
	Links [][]phy.ModeLink
	// Idx maps batch slots back to caller indices (e.g. hub member
	// index) when only a subset of a population is batched.
	Idx []int
	// E1 and E2 are the per-slot budget columns the solve kernels read.
	E1, E2 []units.Joule
	// P is the fraction output, one stride-phy.NumModes row per slot;
	// row k's live prefix is Cols.Len[k] long and sums to 1.
	P []float64
	// TX and RX are the mixture's average per-bit costs per slot; Bits
	// is the deliverable payload per slot.
	TX, RX []units.JoulesPerBit
	Bits   []float64
	// Counts and Rem are stride-phy.NumModes block-schedule scratch
	// rows (largest-remainder counts and remainders per slot).
	Counts []int
	Rem    []float64
	// Errs records per-slot solve failures (nil for solved slots).
	Errs []error
	// bases retains each slot's last simplex basis across rounds — the
	// warm-start seed SolveEq1Batch hands lp.SolveWarm. Reset keeps it.
	bases [][]int
	// c, aRow, ones are stride-phy.NumModes Eq. (1) matrix rows.
	c, aRow, ones []float64
}

// Reset sizes the arena for n slots, reusing every underlying array
// when capacity allows (zero allocations in steady state). Slot outputs
// are left stale — kernels overwrite their own slots — but Errs is
// cleared. Retained warm-start bases survive a Reset: slot k's basis
// keeps seeding slot k's next solve, which is exactly what a fixed
// registration order wants.
func (s *BatchScratch) Reset(n int) {
	flat := n * phy.NumModes
	if cap(s.Dists) < n {
		s.Dists = make([]units.Meter, n)
		s.Links = make([][]phy.ModeLink, n)
		s.Idx = make([]int, n)
		s.E1 = make([]units.Joule, n)
		s.E2 = make([]units.Joule, n)
		s.TX = make([]units.JoulesPerBit, n)
		s.RX = make([]units.JoulesPerBit, n)
		s.Bits = make([]float64, n)
		s.Errs = make([]error, n)
		s.P = make([]float64, flat)
		s.Counts = make([]int, flat)
		s.Rem = make([]float64, flat)
		s.c = make([]float64, flat)
		s.aRow = make([]float64, flat)
		s.ones = make([]float64, flat)
		grown := make([][]int, n)
		copy(grown, s.bases)
		s.bases = grown
	}
	s.Dists = s.Dists[:n]
	s.Links = s.Links[:n]
	s.Idx = s.Idx[:n]
	s.E1, s.E2 = s.E1[:n], s.E2[:n]
	s.TX, s.RX, s.Bits = s.TX[:n], s.RX[:n], s.Bits[:n]
	s.Errs = s.Errs[:n]
	s.P = s.P[:flat]
	s.Counts, s.Rem = s.Counts[:flat], s.Rem[:flat]
	s.c, s.aRow, s.ones = s.c[:flat], s.aRow[:flat], s.ones[:flat]
	s.bases = s.bases[:n]
	for i := range s.Errs {
		s.Errs[i] = nil
	}
}

// InvalidateWarm drops every retained warm-start basis; the next
// SolveEq1Batch round solves cold. Owners recycling one arena across
// logically unrelated populations must call it.
func (s *BatchScratch) InvalidateWarm() {
	for i := range s.bases {
		s.bases[i] = s.bases[i][:0]
	}
}

// PRow returns slot k's fraction row, trimmed to its live prefix and
// capacity-clamped so appends can never spill into slot k+1.
func (s *BatchScratch) PRow(k int) []float64 {
	base := k * phy.NumModes
	n := int(s.Cols.Len[k])
	return s.P[base : base+n : base+n]
}

// CountsRow returns slot k's block-count row (live prefix, clamped).
func (s *BatchScratch) CountsRow(k int) []int {
	base := k * phy.NumModes
	n := int(s.Cols.Len[k])
	return s.Counts[base : base+n : base+n]
}

// remRow returns slot k's largest-remainder scratch row.
func (s *BatchScratch) remRow(k int) []float64 {
	base := k * phy.NumModes
	n := int(s.Cols.Len[k])
	return s.Rem[base : base+n : base+n]
}

// BlockCountsRow expands slot k's solved fractions into contiguous
// per-mode frame counts over a window — blockCounts over the arena
// rows, no sequence materialized. The result row aligns with slot k's
// link slots (canonical mode order), exactly as core.ScheduleBlocks
// would count them.
func (s *BatchScratch) BlockCountsRow(k, window int) []int {
	counts := s.CountsRow(k)
	blockCounts(s.PRow(k), window, counts, s.remRow(k))
	return counts
}

// batchSeqThreshold is the slot count below which the batch kernels
// stay sequential — same rationale as linkcache's batch threshold.
const batchSeqThreshold = 64

// parSlots reports whether a kernel over n slots should stripe across
// par.For workers; below the threshold (or at Workers=1) kernels stay
// sequential — and allocation-free, since no worker closure is built.
func parSlots(workers, n int) bool {
	return n >= batchSeqThreshold && workers != 1
}

// OptimizeBatch runs the closed-form offload optimizer (Optimize) over
// every slot of the arena's columns: budgets from E1/E2, links from
// Cols, fractions into P rows, mixtures into TX/RX/Bits, failures into
// Errs. The per-slot enumeration performs bit-for-bit the arithmetic of
// optimizeInto — same candidate order, same strict comparison, same
// index-tracked mixture — so a slot's outputs are bit-identical to
// Optimize on the equivalent []ModeLink at any worker count. The hot
// path allocates nothing (gated by AllocsPerRun tests).
func OptimizeBatch(s *BatchScratch, workers int) {
	n := s.Cols.N
	if parSlots(workers, n) {
		par.For(workers, n, func(k int) { s.Errs[k] = s.optimizeSlot(k) })
		return
	}
	for k := 0; k < n; k++ {
		s.Errs[k] = s.optimizeSlot(k)
	}
}

// optimizeSlot is optimizeInto over slot k's column row.
func (s *BatchScratch) optimizeSlot(k int) error {
	c := &s.Cols
	base := k * phy.NumModes
	n := int(c.Len[k])
	e1, e2 := s.E1[k], s.E2[k]
	if n == 0 {
		return ErrNoLinks
	}
	if e1 <= 0 || e2 <= 0 {
		return fmt.Errorf("core: non-positive budgets %v/%v", float64(e1), float64(e2))
	}
	T := c.T[base : base+n]
	R := c.R[base : base+n]
	for i := 0; i < n; i++ {
		if T[i] <= 0 || R[i] <= 0 || math.IsInf(float64(T[i]), 1) || math.IsInf(float64(R[i]), 1) {
			return fmt.Errorf("core: link %v has unusable costs %v/%v", c.Mode[base+i], T[i], R[i])
		}
	}
	ratio := float64(e1) / float64(e2)

	bestI, bestJ := -1, -1
	bestQ := 0.0
	var bestTX, bestRX units.JoulesPerBit
	bestBits := -1.0
	for i := 0; i < n; i++ {
		bits := bitsFor(T[i], R[i], e1, e2)
		if bits > bestBits {
			bestI, bestJ = i, -1
			bestTX, bestRX, bestBits = T[i], R[i], bits
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ai := float64(T[i]) - ratio*float64(R[i])
			aj := float64(T[j]) - ratio*float64(R[j])
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
			t += q * float64(T[i])
			t += qj * float64(T[j])
			r += q * float64(R[i])
			r += qj * float64(R[j])
			tx, rx := units.JoulesPerBit(t), units.JoulesPerBit(r)
			bits := bitsFor(tx, rx, e1, e2)
			if bits > bestBits {
				bestI, bestJ, bestQ = i, j, q
				bestTX, bestRX, bestBits = tx, rx, bits
			}
		}
	}
	p := s.P[base : base+n]
	for i := range p {
		p[i] = 0
	}
	if bestJ < 0 {
		p[bestI] = 1
	} else {
		p[bestI], p[bestJ] = bestQ, 1-bestQ
	}
	s.TX[k], s.RX[k], s.Bits[k] = bestTX, bestRX, bestBits
	return nil
}

// SolveEq1Batch runs the paper's Eq. (1) simplex solve over every slot,
// warm-starting each from the basis its slot retained last round and
// falling back to a cold two-phase solve when the retained basis is
// stale or infeasible. Fractions land in P rows, mixtures in
// TX/RX/Bits, failures (including lp.ErrInfeasible) in Errs. Warm and
// cold solves are bit-identical (lp's canonical extraction), so the
// batch agrees bit-for-bit with per-slot SolveEq1 at any worker count,
// warm or cold. rec, when non-nil, counts warm starts and cold
// fallbacks (a first-ever solve with no retained basis is neither).
func SolveEq1Batch(s *BatchScratch, workers int, rec *obs.Recorder) {
	n := s.Cols.N
	if parSlots(workers, n) {
		par.For(workers, n, func(k int) { s.Errs[k] = s.solveEq1Slot(k, rec) })
		return
	}
	for k := 0; k < n; k++ {
		s.Errs[k] = s.solveEq1Slot(k, rec)
	}
}

// solveEq1Slot is SolveEq1 over slot k's column row, warm-started.
func (s *BatchScratch) solveEq1Slot(k int, rec *obs.Recorder) error {
	cols := &s.Cols
	base := k * phy.NumModes
	n := int(cols.Len[k])
	e1, e2 := s.E1[k], s.E2[k]
	if n == 0 {
		return ErrNoLinks
	}
	if e1 <= 0 || e2 <= 0 {
		return fmt.Errorf("core: non-positive budgets %v/%v", float64(e1), float64(e2))
	}
	T := cols.T[base : base+n]
	R := cols.R[base : base+n]
	for i := 0; i < n; i++ {
		if T[i] <= 0 || R[i] <= 0 || math.IsInf(float64(T[i]), 1) || math.IsInf(float64(R[i]), 1) {
			return fmt.Errorf("core: link %v has unusable costs %v/%v", cols.Mode[base+i], T[i], R[i])
		}
	}
	ratio := float64(e1) / float64(e2)
	c := s.c[base : base+n]
	aRow := s.aRow[base : base+n]
	ones := s.ones[base : base+n]
	for i := 0; i < n; i++ {
		c[i] = float64(T[i]) + float64(R[i])
		aRow[i] = float64(T[i]) - ratio*float64(R[i])
		ones[i] = 1
	}
	scaleRowMax(aRow)
	scaleRowMax(c)
	prob := &lp.Problem{C: c, A: [][]float64{ones, aRow}, B: []float64{1, 0}}
	var basis []int
	if len(s.bases[k]) > 0 {
		basis = s.bases[k]
	}
	sol, warm, err := lp.SolveWarm(prob, basis)
	if rec != nil {
		if warm {
			rec.LPWarmStarts.Add(1)
		} else if basis != nil {
			rec.LPColdFallbacks.Add(1)
		}
	}
	if err != nil {
		s.bases[k] = s.bases[k][:0]
		return err
	}
	s.bases[k] = append(s.bases[k][:0], sol.Basis...)
	p := s.P[base : base+n]
	copy(p, sol.X)
	// Mixture exactly as SolveEq1's: the generic dot product over every
	// slot, zeros included.
	var t, r float64
	for i := 0; i < n; i++ {
		t += p[i] * float64(T[i])
		r += p[i] * float64(R[i])
	}
	s.TX[k], s.RX[k] = units.JoulesPerBit(t), units.JoulesPerBit(r)
	s.Bits[k] = bitsFor(s.TX[k], s.RX[k], e1, e2)
	return nil
}
