package fading

import (
	"math"
	"testing"

	"braidio/internal/units"
)

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
// argument: with millisecond coherence the drift's spectral content sits
// well below 1 kHz, so a high-pass filter at a few kHz removes it without
// touching a 100 kbps backscatter signal. The largest sample-to-sample
// change over a 100 kbps bit period is tiny compared to the level.
func TestSelfInterferenceIsLowFrequency(t *testing.T) {
	s := DefaultSelfInterference(1.0)
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
}
