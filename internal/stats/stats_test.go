package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v, want 15", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v, want 50", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %v, want 35", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("p25 = %v, want 20", got)
	}
	// Input must be untouched.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":    func() { Percentile(nil, 50) },
		"negative": func() { Percentile([]float64{1}, -1) },
		"over100":  func() { Percentile([]float64{1}, 101) },
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

func TestSeriesInterpolate(t *testing.T) {
	s := Series{{0, 0}, {1, 10}, {2, 40}}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.5, 25}, {2, 40}, {3, 40},
	}
	for _, c := range cases {
		if got := s.Interpolate(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Interpolate(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCrossAbove(t *testing.T) {
	// Monotone increasing curve like BER vs distance.
	s := Series{{0, 1e-4}, {1, 1e-3}, {2, 1e-1}}
	x, ok := s.CrossAbove(1e-2)
	if !ok || x <= 1 || x >= 2 {
		t.Errorf("CrossAbove(1e-2) = %v,%v, want within (1,2)", x, ok)
	}
	if _, ok := s.CrossAbove(1); ok {
		t.Error("CrossAbove beyond the series range should fail")
	}
}

func TestCrossConsistencyProperty(t *testing.T) {
	// For any increasing series, the crossing point interpolates back to
	// approximately the threshold.
	s := Series{{0, 2}, {0.5, 11}, {1.1, 38}, {2, 71}, {4, 100}}
	f := func(raw uint8) bool {
		th := 3 + float64(raw%97)
		x, ok := s.CrossAbove(th)
		if !ok {
			return th > 100
		}
		return math.Abs(s.Interpolate(x)-th) < 1e-9 || x == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
