package core

import (
	"math"
	"reflect"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// runBoth runs the same braid configuration through Run (fresh result,
// throwaway scratch) and through RunInto with the caller's persistent
// scratch, returning both results.
func runBoth(t *testing.T, b *Braid, s *RunScratch, c1, c2 units.WattHour, res *Result) *Result {
	t.Helper()
	want, err := b.Run(energy.NewBattery(c1), energy.NewBattery(c2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RunInto(res, s, energy.NewBattery(c1), energy.NewBattery(c2)); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunIntoMatchesRun: RunInto with a reused scratch and result is
// bit-identical to Run, across repeated calls, distances, and MaxBits
// caps — the contract that lets the hub's fleet engine reuse one
// scratch per member for thousands of rounds.
func TestRunIntoMatchesRun(t *testing.T) {
	m := phy.NewModel()
	var s RunScratch
	var res Result
	for _, tc := range []struct {
		d       units.Meter
		maxBits float64
	}{
		{0.4, 0}, {0.4, 5e5}, {1.2, 1e6}, {0.4, 5e5}, {2.0, 0}, {0.4, 5e5},
	} {
		b := NewBraid(m, tc.d)
		b.MaxBits = tc.maxBits
		want := runBoth(t, b, &s, 0.05, 0.8, &res)
		if !reflect.DeepEqual(*want, res) {
			t.Errorf("d=%v maxBits=%v: RunInto diverged from Run:\n got %+v\nwant %+v",
				float64(tc.d), tc.maxBits, res, *want)
		}
	}
}

// TestRunIntoCrossRunMemo: with persistent scratch, a second run from
// the same battery state produces identical totals — the scratch
// carries nothing from one run into the next.
func TestRunIntoCrossRunMemo(t *testing.T) {
	m := phy.NewModel()
	b := NewBraid(m, 0.4)
	b.MaxBits = 1e5

	var s RunScratch
	var r1, r2 Result
	if err := b.RunInto(&r1, &s, energy.NewBattery(0.05), energy.NewBattery(0.8)); err != nil {
		t.Fatal(err)
	}
	if err := b.RunInto(&r2, &s, energy.NewBattery(0.05), energy.NewBattery(0.8)); err != nil {
		t.Fatal(err)
	}
	if r1.Bits != r2.Bits || r1.Drain1 != r2.Drain1 || r1.Drain2 != r2.Drain2 {
		t.Errorf("identical reruns diverged: %+v vs %+v", r1, r2)
	}
}

// TestRunIntoQoSOptimizer: the custom-optimizer path through RunInto
// matches Run for a QoS-constrained braid.
func TestRunIntoQoSOptimizer(t *testing.T) {
	m := phy.NewModel()
	b := NewBraid(m, 2.0)
	b.MaxBits = 2e5
	b.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
		return OptimizeQoS(links, e1, e2, 300000)
	}
	var s RunScratch
	var res Result
	want := runBoth(t, b, &s, 0.2, 6.55, &res)
	if math.Abs(want.Bits-res.Bits) > 0 || want.Drain1 != res.Drain1 {
		t.Errorf("QoS RunInto diverged: %+v vs %+v", res, *want)
	}
}
