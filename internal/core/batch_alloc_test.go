//go:build !race

package core

import (
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// TestOptimizeBatchZeroAlloc gates the batch hot path: once an arena is
// warmed to capacity, a full round of Reset + re-characterize +
// OptimizeBatch + block counting must allocate nothing — the arena
// exists precisely so serve epochs stop round-tripping the allocator.
// Excluded under -race (the detector instruments allocations) and run
// at Workers=1 (par.For's worker goroutines allocate).
func TestOptimizeBatchZeroAlloc(t *testing.T) {
	m := phy.NewModel()
	const n = 32
	var s BatchScratch
	s.Reset(n)
	s.Cols.Reset(n)
	dists := make([]units.Meter, n)
	for k := 0; k < n; k++ {
		dists[k] = units.Meter(0.1 + 3.2*float64(k)/float64(n))
	}
	round := func() {
		s.Reset(n)
		s.Cols.Reset(n)
		for k := 0; k < n; k++ {
			m.CharacterizeColumns(&s.Cols, k, dists[k])
			s.E1[k] = 4000
			s.E2[k] = 1000
		}
		OptimizeBatch(&s, 1)
		for k := 0; k < n; k++ {
			if s.Errs[k] == nil {
				s.BlockCountsRow(k, 100)
			}
		}
	}
	round() // warm the arena once
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("batch round allocates %.1f times, want 0", allocs)
	}
}
