package baseline

import (
	"math"
	"testing"

	"braidio/internal/units"
)

// TestTable1Ratios pins the TX/RX power ratios the paper's Table 1
// reports: CC2541 in 0.82–1.0, CC2640 in 1.1–1.6.
func TestTable1Ratios(t *testing.T) {
	if r := CC2541.PowerRatio(); r < 0.82 || r > 1.0 {
		t.Errorf("CC2541 ratio = %v, want within 0.82–1.0", r)
	}
	if r := CC2640.PowerRatio(); r < 1.1 || r > 1.6 {
		t.Errorf("CC2640 ratio = %v, want within 1.1–1.6", r)
	}
}

func TestTable1PowerEnvelopes(t *testing.T) {
	if CC2541.TXPower < 55e-3 || CC2541.TXPower > 60e-3 {
		t.Errorf("CC2541 TX = %v, want 55–60 mW", CC2541.TXPower)
	}
	if CC2541.RXPower < 59e-3 || CC2541.RXPower > 67e-3 {
		t.Errorf("CC2541 RX = %v, want 59–67 mW", CC2541.RXPower)
	}
	if CC2640.TXPower < 21e-3 || CC2640.TXPower > 30e-3 {
		t.Errorf("CC2640 TX = %v, want 21–30 mW", CC2640.TXPower)
	}
}

func TestGoodput(t *testing.T) {
	g := Default.Goodput()
	// Calibrated baseline: ≈0.54 Mbps delivered from the 1 Mbps PHY.
	if float64(g) < 0.45e6 || float64(g) > 0.6e6 {
		t.Errorf("goodput = %v, want ≈0.54 Mbps", g)
	}
	if b := CC2640.Goodput(); float64(b) < 0.25e6 || float64(b) > 0.35e6 {
		t.Errorf("CC2640 goodput = %v, want ≈0.3 Mbps (BLE class)", b)
	}
}

func TestPerBit(t *testing.T) {
	tx, rx := Default.PerBit()
	if tx <= 0 || rx <= 0 {
		t.Fatal("non-positive per-bit costs")
	}
	// The default baseline is symmetric (see CC2541's doc comment).
	if tx != rx {
		t.Errorf("tx %v and rx %v should match for the symmetric default", tx, rx)
	}
	// Order of magnitude: ~1e-7 J/bit.
	if float64(tx) < 5e-8 || float64(tx) > 2e-7 {
		t.Errorf("tx per-bit = %v, want O(1e-7)", tx)
	}
}

func TestBitsUntilDeath(t *testing.T) {
	b := Default
	tx, rx := b.PerBit()
	// Symmetric budgets and symmetric radio: either side limits.
	bits := b.BitsUntilDeath(3600, 3600)
	if want := 3600 / float64(tx); math.Abs(bits-want)/want > 1e-9 {
		t.Errorf("symmetric bits = %v, want %v", bits, want)
	}
	_ = rx
	// Huge TX budget: the RX side limits.
	bits = b.BitsUntilDeath(1e9, 3600)
	if want := 3600 / float64(rx); math.Abs(bits-want)/want > 1e-9 {
		t.Errorf("rx-limited bits = %v, want %v", bits, want)
	}
	if b.BitsUntilDeath(0, 100) != 0 || b.BitsUntilDeath(100, -1) != 0 {
		t.Error("dead budgets should move zero bits")
	}
}

func TestBitsUntilDeathScalesLinearly(t *testing.T) {
	b := Default
	one := b.BitsUntilDeath(1000, 1000)
	ten := b.BitsUntilDeath(10000, 10000)
	if math.Abs(ten/one-10) > 1e-9 {
		t.Errorf("bits did not scale linearly: %v vs %v", one, ten)
	}
}

// TestTable2Catalog pins the commercial reader table.
func TestTable2Catalog(t *testing.T) {
	if len(Readers) != 6 {
		t.Fatalf("catalog has %d readers, want the 6 of Table 2", len(Readers))
	}
	var as *Reader
	for i := range Readers {
		if Readers[i].Model == "AS3993" {
			as = &Readers[i]
		}
	}
	if as == nil {
		t.Fatal("AS3993 missing")
	}
	if as.Power != 0.64 || as.TXOut != 17 || as.CostUSD != 397 {
		t.Errorf("AS3993 = %+v, mismatches Table 2", *as)
	}
	// All readers draw hundreds of mW to watts — the motivating gap.
	for _, r := range Readers {
		if r.Power < 0.5 || r.Power > 5 {
			t.Errorf("%s power %v outside the table's range", r.Model, r.Power)
		}
		if r.RXPower > r.Power {
			t.Errorf("%s RX estimate exceeds total", r.Model)
		}
	}
}

// TestLowestPowerReaderIsAS3993: the paper picks the AS3993 because it is
// the lowest-power reader available.
func TestLowestPowerReaderIsAS3993(t *testing.T) {
	if got := LowestPowerReader(); got.Model != "AS3993" {
		t.Errorf("lowest-power reader = %s, want AS3993", got.Model)
	}
}

func TestReaderString(t *testing.T) {
	if s := Readers[0].String(); s == "" {
		t.Error("empty reader description")
	}
}

func TestDefaultGoodputFactorCalibrated(t *testing.T) {
	// The Fig. 15 diagonal calibration (EXPERIMENTS.md) depends on this
	// value; pin it so accidental changes fail loudly.
	if Default.GoodputFactor != 0.536 {
		t.Errorf("default goodput factor = %v, want 0.536", Default.GoodputFactor)
	}
	if Default.PowerRatio() != 1 {
		t.Errorf("default baseline must be symmetric, ratio %v", Default.PowerRatio())
	}
	if Default.PHYRate != units.Rate1M {
		t.Errorf("default PHY rate = %v, want 1 Mbps", Default.PHYRate)
	}
}

func TestDutyCycled(t *testing.T) {
	d := DutyCycled{Radio: Default, Interval: 1, Window: 0.01, SleepPower: 3e-6}
	if got := d.Duty(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("duty = %v, want 0.01", got)
	}
	// Average idle power ≈ 1% of 60 mW + sleep ≈ 0.6 mW.
	if got := d.IdlePower().Milliwatts(); got < 0.5 || got > 0.7 {
		t.Errorf("idle power = %v mW, want ≈0.6", got)
	}
	if got := d.WorstCaseLatency(); got != 1 {
		t.Errorf("latency = %v, want 1 s", got)
	}
	// Always-on degenerate case.
	on := DutyCycled{Radio: Default, Interval: 0, Window: 1}
	if on.Duty() != 1 || on.WorstCaseLatency() != 0 || on.IdlePower() != Default.RXPower {
		t.Error("always-on duty cycle wrong")
	}
	// Window longer than interval clamps to always-on.
	clamped := DutyCycled{Radio: Default, Interval: 1, Window: 5}
	if clamped.Duty() != 1 {
		t.Errorf("clamped duty = %v", clamped.Duty())
	}
}

func TestDutyCycledTradeoffMonotone(t *testing.T) {
	// Longer intervals: less power, more latency — the classic curve.
	prevP, prevL := math.Inf(1), -1.0
	for _, iv := range []units.Second{0.1, 0.5, 2, 10} {
		d := DutyCycled{Radio: Default, Interval: iv, Window: 0.005, SleepPower: 3e-6}
		p := float64(d.IdlePower())
		l := float64(d.WorstCaseLatency())
		if p >= prevP || l <= prevL {
			t.Fatalf("tradeoff not monotone at interval %v", iv)
		}
		prevP, prevL = p, l
	}
}
