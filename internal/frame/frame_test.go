package frame

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOverheadIs16Bytes(t *testing.T) {
	// The energy model's 93.75% framing efficiency assumes 16 bytes of
	// overhead on a 240-byte payload; pin it.
	if Overhead != 16 {
		t.Fatalf("Overhead = %d, want 16", Overhead)
	}
	if got := Efficiency(DefaultPayload); math.Abs(got-0.9375) > 1e-12 {
		t.Errorf("default efficiency = %v, want 0.9375", got)
	}
}

func TestEfficiencyMonotone(t *testing.T) {
	prev := -1.0
	for l := 0; l <= MaxPayload; l += 16 {
		e := Efficiency(l)
		if e <= prev {
			t.Fatalf("efficiency not increasing at payload %d", l)
		}
		prev = e
	}
}

func TestFrameErrorRate(t *testing.T) {
	if got := FrameErrorRate(0, 100); got != 0 {
		t.Errorf("FER at BER 0 = %v", got)
	}
	if got := FrameErrorRate(1, 100); got != 1 {
		t.Errorf("FER at BER 1 = %v", got)
	}
	// Small-BER approximation: FER ≈ bits × BER.
	ber := 1e-6
	bits := float64(WireBits(100))
	if got := FrameErrorRate(ber, 100); math.Abs(got-bits*ber)/(bits*ber) > 0.01 {
		t.Errorf("FER = %v, want ≈ %v", got, bits*ber)
	}
}

func TestFrameErrorRateMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a) / 65536 * 0.01
		y := float64(b) / 65536 * 0.01
		if x > y {
			x, y = y, x
		}
		return FrameErrorRate(x, 64) <= FrameErrorRate(y, 64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFERPanics(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BER %v did not panic", bad)
				}
			}()
			FrameErrorRate(bad, 10)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	Efficiency(-1)
}
