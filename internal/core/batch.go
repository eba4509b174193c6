package core

import (
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// BatchScratch is the column arena of the batch offload solver: one
// flat workspace a round owner (the serve daemon's epoch planner, one
// per shard) resets once per epoch instead of round-tripping M
// per-member buffers through a pool. Every per-slot array is either a
// scalar column (one entry per slot) or a stride-phy.NumModes row
// block, so OptimizeBatch iterates linearly and parallel workers write
// only index-owned slots: results are bit-identical at any worker count.
//
// A BatchScratch is not safe for concurrent use by multiple rounds;
// OptimizeBatch parallelizes internally across slots.
type BatchScratch struct {
	// Cols holds each slot's characterized links, the input
	// OptimizeBatch reads.
	Cols phy.LinkColumns
	// Dists is a distance column for a caller that characterizes the
	// whole batch through linkcache.View.CharacterizeColumns; only
	// bench's replay does. The serve planner fills Cols row by row and
	// leaves Dists stale.
	Dists []units.Meter
	// E1 and E2 are the per-slot budget columns.
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
}

// Reset sizes the arena for n slots, reusing every underlying array
// when capacity allows (zero allocations in steady state). Slot outputs
// are left stale — OptimizeBatch overwrites every slot — but Errs is
// cleared. Cols is sized by its own Reset, which the characterization
// calls.
func (s *BatchScratch) Reset(n int) {
	flat := n * phy.NumModes
	if cap(s.Dists) < n {
		s.Dists = make([]units.Meter, n)
		s.E1 = make([]units.Joule, n)
		s.E2 = make([]units.Joule, n)
		s.TX = make([]units.JoulesPerBit, n)
		s.RX = make([]units.JoulesPerBit, n)
		s.Bits = make([]float64, n)
		s.Errs = make([]error, n)
		s.P = make([]float64, flat)
		s.Counts = make([]int, flat)
		s.Rem = make([]float64, flat)
	}
	s.Dists = s.Dists[:n]
	s.E1, s.E2 = s.E1[:n], s.E2[:n]
	s.TX, s.RX, s.Bits = s.TX[:n], s.RX[:n], s.Bits[:n]
	s.Errs = s.Errs[:n]
	s.P = s.P[:flat]
	s.Counts, s.Rem = s.Counts[:flat], s.Rem[:flat]
	for i := range s.Errs {
		s.Errs[i] = nil
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

// batchSeqThreshold is the slot count below which OptimizeBatch stays
// sequential: striping a handful of solves over the pool costs more in
// goroutine fan-out than it saves.
const batchSeqThreshold = 64

// OptimizeBatch runs Optimize over every slot of the arena: budgets
// from E1/E2, links from Cols, fractions into P rows, mixtures into
// TX/RX/Bits, failures into Errs. Each slot runs optimizeRow, the
// checks and enumeration behind Optimize, so its outputs are
// bit-identical to Optimize on the same links at any worker count. Below
// batchSeqThreshold slots, or at Workers=1, it runs sequentially and
// allocates nothing (gated by AllocsPerRun tests).
func OptimizeBatch(s *BatchScratch, workers int) {
	n := len(s.Cols.Len)
	if n >= batchSeqThreshold && workers != 1 {
		par.For(workers, n, s.optimizeSlot)
		return
	}
	for k := 0; k < n; k++ {
		s.optimizeSlot(k)
	}
}

// optimizeSlot solves slot k into its arena row.
func (s *BatchScratch) optimizeSlot(k int) {
	s.TX[k], s.RX[k], s.Bits[k], s.Errs[k] = optimizeRow(s.Cols.Row(k), s.E1[k], s.E2[k], s.PRow(k))
}
