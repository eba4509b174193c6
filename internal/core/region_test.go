package core

import (
	"math"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// TestRegionAtShortRange reproduces the Fig. 9 geometry: a triangle at
// 0.3 m whose corners carry the published efficiency ratios and whose
// span covers seven orders of magnitude.
func TestRegionAtShortRange(t *testing.T) {
	m := phy.NewModel()
	region := RegionAt(m, 0.3)
	if len(region.Points) != 3 {
		t.Fatalf("region has %d corners", len(region.Points))
	}
	min, max := region.RatioSpan()
	if !approx(min, 1.0/2546, 0.01) {
		t.Errorf("min ratio = %v, want 1:2546", min)
	}
	if !approx(max, 3546, 0.02) {
		t.Errorf("max ratio = %v, want 3546:1", max)
	}
	if orders := region.DynamicRangeOrders(); math.Abs(orders-6.96) > 0.1 {
		t.Errorf("dynamic range = %v orders, want ≈7", orders)
	}
	// Each corner's ratio agrees with its own EfficiencyRatio accessor.
	for _, p := range region.Points {
		want := p.TXBitsPerJoule / p.RXBitsPerJoule
		if got := p.EfficiencyRatio(); got != want {
			t.Errorf("%v: EfficiencyRatio = %v, want %v", p.Mode, got, want)
		}
	}
}

// TestRegionDegenerates tracks Fig. 14: triangle → line → point → empty.
func TestRegionDegenerates(t *testing.T) {
	m := phy.NewModel()
	cases := []struct {
		d    units.Meter
		want int
	}{{0.3, 3}, {3, 2}, {6, 1}, {5000, 0}}
	for _, c := range cases {
		region := RegionAt(m, c.d)
		if len(region.Points) != c.want {
			t.Errorf("region at %v m has %d corners, want %d", c.d, len(region.Points), c.want)
		}
	}
	// Empty region edge cases.
	empty := RegionAt(m, 5000)
	if min, max := empty.RatioSpan(); !math.IsNaN(min) || !math.IsNaN(max) {
		t.Errorf("empty region span = %v..%v, want NaN", min, max)
	}
	if empty.DynamicRangeOrders() != 0 {
		t.Error("empty region orders should be 0")
	}
}

// TestPointP reproduces the Fig. 9 annotation: a 100:1 pair operates at
// a point on line BC, dominated by the passive mode (the TX-rich side
// carries the carrier).
func TestPointP(t *testing.T) {
	m := phy.NewModel()
	p, err := PointP(m, 0.3, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != phy.ModePassive {
		t.Errorf("point P dominant mode = %v, want passive", p.Mode)
	}
	// Power-proportional: the efficiency ratio is the budget ratio
	// inverted (TX spends 100× ⇒ 100× fewer bits per joule).
	if got := p.TXBitsPerJoule / p.RXBitsPerJoule; !approx(got, 0.01, 1e-3) {
		t.Errorf("P efficiency ratio = %v, want 0.01", got)
	}
	if _, err := PointP(m, 5000, 1, 1); err == nil {
		t.Error("out-of-range point P should error")
	}
}

// TestSchedulerConvergesExactly: the persistent scheduler realizes
// arbitrary fractions exactly in the long run, including ones far below
// the window resolution.
func TestSchedulerConvergesExactly(t *testing.T) {
	links := linksAt(t, 0.3)
	p := []float64{0.003, 0.75, 0.247}
	s := NewScheduler(links, p)
	counts := map[phy.Mode]float64{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Next().Mode]++
	}
	for i, l := range links {
		got := counts[l.Mode] / n
		if math.Abs(got-p[i]) > 2e-4 {
			t.Errorf("%v share = %v, want %v", l.Mode, got, p[i])
		}
	}
}

func TestSchedulerRetarget(t *testing.T) {
	links := linksAt(t, 0.3)
	s := NewScheduler(links, []float64{1, 0, 0})
	for i := 0; i < 10; i++ {
		if got := s.Next().Mode; got != links[0].Mode {
			t.Fatalf("pre-retarget slot %d = %v", i, got)
		}
	}
	s.Retarget(links, []float64{0, 1, 0})
	for i := 0; i < 10; i++ {
		if got := s.Next().Mode; got != links[1].Mode {
			t.Fatalf("post-retarget slot %d = %v", i, got)
		}
	}
}

func TestSchedulerPanics(t *testing.T) {
	links := linksAt(t, 0.3)
	for name, f := range map[string]func(){
		"new mismatch":      func() { NewScheduler(links, []float64{1}) },
		"retarget mismatch": func() { NewScheduler(links, []float64{1, 0, 0}).Retarget(links, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestScheduleBlocksRounding(t *testing.T) {
	links := linksAt(t, 0.3)
	// Fractions that don't divide the window evenly still fill it.
	seq := ScheduleBlocks(links, []float64{0.33, 0.33, 0.34}, 10)
	if len(seq) != 10 {
		t.Fatalf("block schedule length %d", len(seq))
	}
	if tr := Transitions(seq, seq[0]); tr > 2 {
		t.Errorf("block schedule has %d transitions, want ≤2", tr)
	}
}

func TestModeFractionEmpty(t *testing.T) {
	var r Result
	if r.ModeFraction(phy.ModeActive) != 0 {
		t.Error("empty result fraction should be 0")
	}
}
