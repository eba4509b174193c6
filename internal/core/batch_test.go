package core

import (
	"math"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// batchRNG is the xorshift generator the batch differential corpora use.
type batchRNG uint64

func (s *batchRNG) next() float64 { // uniform in [0, 1)
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = batchRNG(x)
	return float64(x>>11) / (1 << 53)
}

// fillBatch characterizes n random slots (some deliberately out of
// range) into the arena and returns the matching AoS links for the
// per-member reference path.
func fillBatch(s *BatchScratch, m *phy.Model, rng *batchRNG, n int) [][]phy.ModeLink {
	s.Reset(n)
	s.Cols.Reset(n)
	refLinks := make([][]phy.ModeLink, n)
	for k := 0; k < n; k++ {
		d := units.Meter(0.1 + 3.4*rng.next())
		if rng.next() < 0.05 {
			d = 9.0 // out of range: zero links, ErrNoLinks
		}
		s.Dists[k] = d
		m.CharacterizeColumns(&s.Cols, k, d)
		refLinks[k] = m.Characterize(d)
		// Budgets spanning the paper's asymmetry regimes, 1 mJ – 10 kJ.
		s.E1[k] = units.Joule(math.Pow(10, -3+7*rng.next()))
		s.E2[k] = units.Joule(math.Pow(10, -3+7*rng.next()))
	}
	return refLinks
}

// checkSlot compares slot k of the arena against a per-member
// Allocation bit for bit.
func checkSlot(t *testing.T, s *BatchScratch, k int, want *Allocation, wantErr error) {
	t.Helper()
	gotErr := s.Errs[k]
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("slot %d: err=%v, reference err=%v", k, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	p := s.PRow(k)
	if len(p) != len(want.P) {
		t.Fatalf("slot %d: %d fractions, reference %d", k, len(p), len(want.P))
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(want.P[i]) {
			t.Fatalf("slot %d link %d: p=%v, reference %v", k, i, p[i], want.P[i])
		}
	}
	if math.Float64bits(float64(s.TX[k])) != math.Float64bits(float64(want.TX)) ||
		math.Float64bits(float64(s.RX[k])) != math.Float64bits(float64(want.RX)) ||
		math.Float64bits(s.Bits[k]) != math.Float64bits(want.Bits) {
		t.Fatalf("slot %d: mixture %v/%v/%v, reference %v/%v/%v",
			k, s.TX[k], s.RX[k], s.Bits[k], want.TX, want.RX, want.Bits)
	}
}

// TestOptimizeBatchDifferential pins the batch kernel's golden
// contract: OptimizeBatch over the arena is bit-identical to
// per-member Optimize over the equivalent []ModeLink — for every slot,
// at every worker count, including out-of-range and extreme-asymmetry
// slots.
func TestOptimizeBatchDifferential(t *testing.T) {
	m := phy.NewModel()
	rng := batchRNG(0x51f15eed)
	var s BatchScratch
	const n = 100 // above batchSeqThreshold so workers genuinely split
	refLinks := fillBatch(&s, m, &rng, n)

	want := make([]*Allocation, n)
	wantErr := make([]error, n)
	for k := 0; k < n; k++ {
		want[k], wantErr[k] = Optimize(refLinks[k], s.E1[k], s.E2[k])
	}
	for _, workers := range []int{1, 2, 8} {
		OptimizeBatch(&s, workers)
		for k := 0; k < n; k++ {
			checkSlot(t, &s, k, want[k], wantErr[k])
		}
	}
}

// TestBlockCountsRowMatchesSchedule pins the arena's no-materialize
// block counting against ScheduleBlocks' sequence on the same solved
// fractions.
func TestBlockCountsRowMatchesSchedule(t *testing.T) {
	m := phy.NewModel()
	var s BatchScratch
	s.Reset(1)
	s.Cols.Reset(1)
	m.CharacterizeColumns(&s.Cols, 0, 0.3)
	s.E1[0], s.E2[0] = 4000, 1000
	OptimizeBatch(&s, 1)
	if err := s.Errs[0]; err != nil {
		t.Fatal(err)
	}
	const window = 100
	counts := s.BlockCountsRow(0, window)

	links := m.Characterize(0.3)
	alloc, err := Optimize(links, 4000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seq := ScheduleBlocks(links, alloc.P, window)
	seqCounts := make([]int, len(links))
	for _, slot := range seq {
		for i, l := range links {
			if l.Mode == slot {
				seqCounts[i]++
			}
		}
	}
	if len(counts) != len(seqCounts) {
		t.Fatalf("%d count slots, schedule has %d links", len(counts), len(seqCounts))
	}
	total := 0
	for i := range counts {
		if counts[i] != seqCounts[i] {
			t.Fatalf("link %d: count %d, schedule count %d", i, counts[i], seqCounts[i])
		}
		total += counts[i]
	}
	if total != window {
		t.Fatalf("counts sum to %d, want %d", total, window)
	}
}
