package fading

import (
	"math"
	"math/cmplx"
	"testing"

	"braidio/internal/rng"
	"braidio/internal/units"
)

func TestStaticGain(t *testing.T) {
	c := Static{Phase: 1.2}
	g0 := c.Gain(0)
	g1 := c.Gain(100)
	if g0 != g1 {
		t.Error("static channel changed over time")
	}
	if math.Abs(g0.Mag()-1) > 1e-12 {
		t.Errorf("static gain magnitude = %v, want 1", g0.Mag())
	}
	if ph := cmplx.Phase(complex128(g0)); math.Abs(ph-1.2) > 1e-12 {
		t.Errorf("static phase = %v, want 1.2", ph)
	}
}

func TestBlockHoldsWithinCoherence(t *testing.T) {
	b := NewBlock(1e-3, 3, rng.New(1))
	g := b.Gain(0)
	for _, tm := range []units.Second{1e-4, 5e-4, 9.9e-4} {
		if b.Gain(tm) != g {
			t.Errorf("gain changed within a coherence block at t=%v", tm)
		}
	}
	if b.Gain(1.5e-3) == g {
		t.Error("gain did not redraw across blocks (vanishingly unlikely)")
	}
}

func TestBlockConsistentOnRevisit(t *testing.T) {
	b := NewBlock(1e-3, 0, rng.New(2))
	g5 := b.Gain(5.5e-3)
	_ = b.Gain(9e-3)
	if b.Gain(5.5e-3) != g5 {
		t.Error("revisiting an earlier time returned a different gain")
	}
}

func TestBlockUnitMeanPower(t *testing.T) {
	for _, k := range []float64{0, 1, 5, 50} {
		b := NewBlock(1e-3, k, rng.New(3))
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			g := b.Gain(units.Second(float64(i) * 1e-3))
			sum += g.Power()
		}
		if mean := sum / n; math.Abs(mean-1) > 0.03 {
			t.Errorf("K=%v: mean power = %v, want ~1", k, mean)
		}
	}
}

func TestBlockHighKApproachesStatic(t *testing.T) {
	b := NewBlock(1e-3, 1e6, rng.New(4))
	for i := 0; i < 1000; i++ {
		g := b.Gain(units.Second(float64(i) * 1e-3))
		if math.Abs(g.Mag()-1) > 0.01 {
			t.Fatalf("K→∞ envelope = %v, want ≈1", g.Mag())
		}
	}
}

func TestBlockDeterministicAcrossRuns(t *testing.T) {
	a := NewBlock(1e-3, 2, rng.New(9))
	b := NewBlock(1e-3, 2, rng.New(9))
	for i := 0; i < 100; i++ {
		tm := units.Second(float64(i) * 1e-3)
		if a.Gain(tm) != b.Gain(tm) {
			t.Fatal("same-seed block channels diverged")
		}
	}
}

func TestNewBlockValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero coherence": func() { NewBlock(0, 1, rng.New(1)) },
		"negative K":     func() { NewBlock(1e-3, -1, rng.New(1)) },
		"nil stream":     func() { NewBlock(1e-3, 1, nil) },
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
	defer func() {
		if recover() == nil {
			t.Error("negative time did not panic")
		}
	}()
	NewBlock(1e-3, 1, rng.New(1)).Gain(-1)
}

func TestSelfInterferenceBounds(t *testing.T) {
	s := DefaultSelfInterference(2.0)
	for i := 0; i < 1000; i++ {
		v := s.Sample(units.Second(float64(i) * 1e-4))
		if v < 2.0*0.95-1e-9 || v > 2.0*1.05+1e-9 {
			t.Fatalf("leakage %v outside ±5%% band", v)
		}
	}
}

// TestSelfInterferenceIsLowFrequency verifies the paper's separation
// argument: the drift's maximum slew corresponds to spectral content well
// below 1 kHz for millisecond coherence, so a high-pass filter at a few
// kHz removes it without touching a 100 kbps backscatter signal.
func TestSelfInterferenceIsLowFrequency(t *testing.T) {
	s := DefaultSelfInterference(1.0)
	// Max normalized drift rate: DriftFraction/CoherenceTime = 25 rad/s,
	// i.e. ~4 Hz equivalent — three orders below a 10 kHz signal edge.
	if rate := s.MaxDriftRate(); rate > 2*math.Pi*1000 {
		t.Errorf("drift rate %v rad/s reaches into the signal band", rate)
	}
	// Empirically confirm: the largest sample-to-sample change over a
	// 100 kbps bit period is tiny compared to the level.
	const bit = 1e-5
	maxDelta := 0.0
	for i := 0; i < 100000; i++ {
		d := math.Abs(s.Sample(units.Second(float64(i+1)*bit)) - s.Sample(units.Second(float64(i)*bit)))
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta > 1e-3 {
		t.Errorf("per-bit leakage change %v is not negligible", maxDelta)
	}
}

func TestSelfInterferenceStaticFallback(t *testing.T) {
	s := SelfInterference{Level: 3}
	if got := s.Sample(10); got != 3 {
		t.Errorf("static leakage = %v, want 3", got)
	}
	if got := s.MaxDriftRate(); got != 0 {
		t.Errorf("static drift rate = %v, want 0", got)
	}
}

func TestCoherenceFromDoppler(t *testing.T) {
	// Walking speed 1.4 m/s at 915 MHz: f_d ≈ 4.27 Hz, T_c ≈ 99 ms.
	tc := CoherenceFromDoppler(1.4, units.Meter(0.32764))
	if math.Abs(float64(tc)-0.099) > 0.005 {
		t.Errorf("coherence = %v s, want ≈0.099", tc)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero speed did not panic")
		}
	}()
	CoherenceFromDoppler(0, 0.3)
}
