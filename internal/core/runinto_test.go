package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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

// runPaths runs b and its optimizer-path reference over fresh batteries
// of the given capacities (drained empty first when empty is set),
// reports any difference in error, result or final battery levels, and
// returns the reference's error. The reference is b with an Optimizer
// that wraps Optimize, so it validates the row and the budgets and
// solves through Optimize every epoch.
func runPaths(t *testing.T, name string, b Braid, s *RunScratch, c1, c2 units.WattHour, empty bool) error {
	t.Helper()
	batteries := func() (*energy.Battery, *energy.Battery) {
		b1, b2 := energy.NewBattery(c1), energy.NewBattery(c2)
		if empty {
			b1.Drain(b1.Remaining())
		}
		return b1, b2
	}
	ref := b
	ref.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error) {
		return Optimize(links, e1, e2)
	}
	w1, w2 := batteries()
	var want Result
	wantErr := ref.RunInto(&want, nil, w1, w2)
	g1, g2 := batteries()
	var got Result
	gotErr := b.RunInto(&got, s, g1, g2)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, optimizer path %v", name, gotErr, wantErr)
		return wantErr
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%s: default path diverged from the optimizer path:\n got %+v\nwant %+v", name, got, want)
	}
	same := func(a, b units.Joule) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	if !same(g1.Remaining(), w1.Remaining()) || !same(g2.Remaining(), w2.Remaining()) {
		t.Errorf("%s: batteries left %v/%v, optimizer path %v/%v", name,
			g1.Remaining(), g2.Remaining(), w1.Remaining(), w2.Remaining())
	}
	return wantErr
}

// TestRunIntoMatchesOptimizerPath: the default optimizer path, which
// checks the row once at the first epoch and only the budgets after
// that, matches a braid that validates and solves through Optimize every
// epoch, field for field, over distances, capacities on each side,
// MaxBits caps, switch overhead, interleaving and a given or
// characterized row; every cell solves, and one scratch serves them
// all. Rows with an unusable cost return the same error on both paths,
// a budget error still comes before a row error, and a run whose
// battery starts empty returns nil without looking at the row.
func TestRunIntoMatchesOptimizerPath(t *testing.T) {
	m := phy.NewModel()
	var s RunScratch
	for _, d := range []units.Meter{0.2, 0.5, 1, 2, 3, 5} {
		row := m.Characterize(d)
		for _, c1 := range []units.WattHour{0.001, 0.5, 20} {
			for _, c2 := range []units.WattHour{0.001, 0.5, 20} {
				for _, maxBits := range []float64{0, 1e7, 3.3e9} {
					for cfg := 0; cfg < 8; cfg++ {
						b := DefaultBraid(m, d)
						b.MaxBits = maxBits
						b.IncludeSwitchOverhead = cfg&1 == 0
						b.Interleave = cfg&2 != 0
						if cfg&4 != 0 {
							b.Links = row
						}
						name := fmt.Sprintf("d=%v c=%v/%v maxBits=%v overhead=%v interleave=%v links=%v",
							float64(d), float64(c1), float64(c2), maxBits,
							b.IncludeSwitchOverhead, b.Interleave, b.Links != nil)
						if err := runPaths(t, name, b, &s, c1, c2, false); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
	good := m.Characterize(0.5)
	bad := func(mutate func(*phy.ModeLink)) []phy.ModeLink {
		row := append([]phy.ModeLink(nil), good...)
		mutate(&row[len(row)-1])
		return row
	}
	for name, row := range map[string][]phy.ModeLink{
		"+Inf T": bad(func(l *phy.ModeLink) { l.T = units.JoulesPerBit(math.Inf(1)) }),
		"+Inf R": bad(func(l *phy.ModeLink) { l.R = units.JoulesPerBit(math.Inf(1)) }),
		"zero T": bad(func(l *phy.ModeLink) { l.T = 0 }),
		"zero R": bad(func(l *phy.ModeLink) { l.R = 0 }),
		"NaN T":  bad(func(l *phy.ModeLink) { l.T = units.JoulesPerBit(math.NaN()) }),
		"NaN R":  bad(func(l *phy.ModeLink) { l.R = units.JoulesPerBit(math.NaN()) }),
	} {
		b := DefaultBraid(m, 0.5)
		b.Links = row
		if err := runPaths(t, name, b, &s, 0.05, 0.8, false); err == nil {
			t.Errorf("%s: both paths accepted an unusable row", name)
		}
		if err := runPaths(t, name+", NaN budget", b, &s, units.WattHour(math.NaN()), 0.8, false); err == nil ||
			!strings.Contains(err.Error(), "budgets") {
			t.Errorf("%s, NaN budget: error %v, want the budget error first", name, err)
		}
		if err := runPaths(t, name+", empty battery", b, &s, 0.05, 0.8, true); err != nil {
			t.Errorf("%s, empty battery: %v, want nil", name, err)
		}
	}
}
