package rf

import (
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/units"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFreeSpacePathLossKnownValues(t *testing.T) {
	// 915 MHz at 1 m: 20·log10(4π/0.32764) ≈ 31.67 dB.
	got := FreeSpacePathLoss(1, DefaultFrequency)
	if !approx(float64(got), 31.67, 0.05) {
		t.Errorf("FSPL(1 m, 915 MHz) = %v, want ≈31.67", got)
	}
	// Doubling distance adds 6.02 dB.
	d2 := FreeSpacePathLoss(2, DefaultFrequency)
	if !approx(float64(d2-got), 6.02, 0.01) {
		t.Errorf("doubling distance added %v dB, want 6.02", d2-got)
	}
	// 2.4 GHz at 1 m ≈ 40.05 dB.
	if got := FreeSpacePathLoss(1, 2400*units.Megahertz); !approx(float64(got), 40.05, 0.05) {
		t.Errorf("FSPL(1 m, 2.4 GHz) = %v, want ≈40.05", got)
	}
}

func TestFreeSpaceSlopeProperty(t *testing.T) {
	f := func(raw uint16) bool {
		d := 0.1 + float64(raw)/100 // 0.1 .. ~655 m
		a := FreeSpacePathLoss(units.Meter(d), DefaultFrequency)
		b := FreeSpacePathLoss(units.Meter(10*d), DefaultFrequency)
		return approx(float64(b-a), 20, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreeSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FSPL(0) did not panic")
		}
	}()
	FreeSpacePathLoss(0, DefaultFrequency)
}

func TestLogDistanceMatchesFreeSpace(t *testing.T) {
	m := FreeSpaceLogDistance(DefaultFrequency)
	for _, d := range []units.Meter{0.3, 1, 2.5, 6} {
		want := FreeSpacePathLoss(d, DefaultFrequency)
		if got := m.Loss(d); !approx(float64(got), float64(want), 1e-9) {
			t.Errorf("LogDistance(%v) = %v, want %v", d, got, want)
		}
	}
}

func TestLogDistanceExponent(t *testing.T) {
	m := LogDistance{D0: 1, PL0: 40, N: 4}
	if got := m.Loss(10) - m.Loss(1); !approx(float64(got), 40, 1e-9) {
		t.Errorf("n=4 decade slope = %v dB, want 40", got)
	}
}

func TestLinkReceived(t *testing.T) {
	l := NewLink()
	// 13 dBm TX, two -2 dBi antennas, FSPL(1 m) = 31.67:
	// rx = 13 - 2 - 2 - 31.67 = -22.67 dBm.
	got := l.Received(13, 1)
	if !approx(float64(got), -22.67, 0.05) {
		t.Errorf("Received = %v, want ≈ -22.67", got)
	}
}

func TestLinkZeroModelDefaultsToFreeSpace(t *testing.T) {
	l := Link{Frequency: DefaultFrequency, TXAntenna: ChipAntenna, RXAntenna: ChipAntenna}
	want := NewLink().Received(13, 2)
	if got := l.Received(13, 2); !approx(float64(got), float64(want), 1e-9) {
		t.Errorf("zero-model link = %v, want %v", got, want)
	}
}

func TestLinkMonotoneDecreasing(t *testing.T) {
	l := NewLink()
	f := func(raw uint16) bool {
		d := 0.1 + float64(raw%5000)/100
		return l.Received(13, units.Meter(d)) > l.Received(13, units.Meter(d+0.5))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBackscatterRoundTripSlope(t *testing.T) {
	b := NewBackscatterLink()
	// Monostatic: doubling distance costs 12 dB (two 6 dB hops).
	p1 := b.ReceivedMonostatic(13, 1)
	p2 := b.ReceivedMonostatic(13, 2)
	if !approx(float64(p1-p2), 12.04, 0.05) {
		t.Errorf("round-trip doubling cost = %v dB, want ≈12", p1-p2)
	}
}

func TestBackscatterWeakerThanOneWay(t *testing.T) {
	b := NewBackscatterLink()
	l := NewLink()
	for _, d := range []units.Meter{0.3, 1, 2} {
		if b.ReceivedMonostatic(13, d) >= l.Received(13, d) {
			t.Errorf("backscatter at %v m not weaker than one-way", d)
		}
	}
}

func TestBackscatterBistatic(t *testing.T) {
	b := NewBackscatterLink()
	// Symmetric bistatic equals monostatic at the same distance.
	if got, want := b.Received(13, 1.5, 1.5), b.ReceivedMonostatic(13, 1.5); got != want {
		t.Errorf("bistatic(1.5,1.5) = %v, monostatic = %v", got, want)
	}
}

func TestSNR(t *testing.T) {
	if got := SNR(-60, -90); got != 30 {
		t.Errorf("SNR = %v, want 30", got)
	}
}

func TestRangeForSensitivity(t *testing.T) {
	l := NewLink()
	rx := func(d units.Meter) units.DBm { return l.Received(13, d) }
	// Find where the one-way link drops to -60 dBm, then verify.
	d, ok := RangeForSensitivity(rx, -60, 0.01, 1000)
	if !ok {
		t.Fatal("no crossing found")
	}
	if got := rx(d); !approx(float64(got), -60, 0.01) {
		t.Errorf("rx at found range = %v, want -60", got)
	}
	// Analytically: 13 - 4 - 31.67 - 20log10(d) = -60 → d ≈ 10^(37.33/20) ≈ 73.6 m.
	if !approx(float64(d), 73.6, 1.5) {
		t.Errorf("range = %v m, want ≈73.6", d)
	}
}

func TestRangeForSensitivityEdges(t *testing.T) {
	l := NewLink()
	rx := func(d units.Meter) units.DBm { return l.Received(13, d) }
	if _, ok := RangeForSensitivity(rx, 100, 0.01, 1000); ok {
		t.Error("impossible sensitivity should report no range")
	}
	if _, ok := RangeForSensitivity(rx, -300, 0.01, 10); ok {
		t.Error("range beyond bracket should report not-ok")
	}
}

func TestRangeBracketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid bracket did not panic")
		}
	}()
	RangeForSensitivity(func(units.Meter) units.DBm { return 0 }, 0, 1, 1)
}
