package energy

import (
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/units"
)

func TestBatteryBasics(t *testing.T) {
	b := NewBattery(1) // 1 Wh = 3600 J
	if b.Capacity() != 3600 || b.Remaining() != 3600 {
		t.Fatalf("capacity/remaining = %v/%v, want 3600/3600", b.Capacity(), b.Remaining())
	}
	if !b.Drain(600) {
		t.Error("drain within budget returned false")
	}
	if b.Remaining() != 3000 || b.Drained() != 600 {
		t.Errorf("remaining/drained = %v/%v, want 3000/600", b.Remaining(), b.Drained())
	}
	if got := b.Fraction(); math.Abs(got-3000.0/3600) > 1e-12 {
		t.Errorf("fraction = %v", got)
	}
	if b.Empty() {
		t.Error("battery with charge reports empty")
	}
}

func TestBatteryOverdraw(t *testing.T) {
	b := NewBattery(0.001) // 3.6 J
	if b.Drain(10) {
		t.Error("overdraw returned true")
	}
	if !b.Empty() || b.Remaining() != 0 {
		t.Errorf("overdrawn battery: remaining %v", b.Remaining())
	}
	if b.Drained() != 3.6 {
		t.Errorf("drained = %v, want exactly the capacity", b.Drained())
	}
}

func TestBatteryConservationProperty(t *testing.T) {
	f := func(draws []uint16) bool {
		b := NewBattery(0.01) // 36 J
		for _, d := range draws {
			b.Drain(units.Joule(float64(d) / 1000))
		}
		total := float64(b.Remaining() + b.Drained())
		return math.Abs(total-36) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDrainPowerAndTimeLeft(t *testing.T) {
	b := NewBattery(0.1) // 360 J
	if got := b.TimeLeft(1); got != 360 {
		t.Errorf("TimeLeft(1 W) = %v, want 360 s", got)
	}
	b.DrainPower(0.5, 100) // 50 J
	if b.Remaining() != 310 {
		t.Errorf("remaining = %v, want 310", b.Remaining())
	}
	if got := b.TimeLeft(0); !math.IsInf(float64(got), 1) {
		t.Errorf("TimeLeft at zero power = %v, want +Inf", got)
	}
}

func TestTelemetry(t *testing.T) {
	b := NewBattery(1)
	if got := b.Telemetry(); got != 255 {
		t.Errorf("full telemetry = %d, want 255", got)
	}
	b.Drain(1800)
	if got := b.Telemetry(); got != 128 {
		t.Errorf("half telemetry = %d, want 128", got)
	}
	b.Drain(1e9)
	if got := b.Telemetry(); got != 0 {
		t.Errorf("empty telemetry = %d, want 0", got)
	}
}

func TestNewBatteryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewBattery(0)
}

func TestNegativeDrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative drain did not panic")
		}
	}()
	NewBattery(1).Drain(-1)
}

func TestCatalogMatchesFig1(t *testing.T) {
	if len(Catalog) != 10 {
		t.Fatalf("catalog has %d devices, want the 10 of Fig. 1", len(Catalog))
	}
	// The catalog must be ordered smallest to largest, like the figure.
	for i := 1; i < len(Catalog); i++ {
		if Catalog[i].Capacity <= Catalog[i-1].Capacity {
			t.Errorf("catalog out of order at %s", Catalog[i].Name)
		}
	}
	// "Three orders of magnitude between laptops and wearables."
	if span := CapacitySpan(); span < 300 || span > 3000 {
		t.Errorf("capacity span = %v, want roughly three orders of magnitude", span)
	}
	// Spot checks against the intro's claims: laptop ≈ two orders above
	// a smartwatch, one order above a phone.
	mbp, _ := DeviceByName("MacBook Pro 15")
	watch, _ := DeviceByName("Apple Watch")
	phone, _ := DeviceByName("iPhone 6S")
	if r := float64(mbp.Capacity / watch.Capacity); r < 50 || r > 300 {
		t.Errorf("laptop/watch ratio = %v, want ~two orders", r)
	}
	if r := float64(mbp.Capacity / phone.Capacity); r < 5 || r > 50 {
		t.Errorf("laptop/phone ratio = %v, want ~one order", r)
	}
}

func TestDeviceByName(t *testing.T) {
	d, ok := DeviceByName("Pebble Watch")
	if !ok || d.Capacity != 0.48 {
		t.Errorf("Pebble lookup = %+v, %v", d, ok)
	}
	if _, ok := DeviceByName("Nokia 3310"); ok {
		t.Error("unknown device found")
	}
	b := d.NewBattery()
	if b.Capacity() != d.Capacity.Joules() {
		t.Error("device battery capacity mismatch")
	}
}

func TestProportionality(t *testing.T) {
	// Perfect proportionality: drains in exactly the budget ratio.
	if got := Proportionality(100, 10, 1000, 100); got != 0 {
		t.Errorf("perfect proportionality = %v, want 0", got)
	}
	// Off by 2× in either direction gives the same (symmetric) score.
	a := Proportionality(200, 10, 1000, 100)
	b := Proportionality(50, 10, 1000, 100)
	if math.Abs(a-b) > 1e-12 || math.Abs(a-math.Log(2)) > 1e-12 {
		t.Errorf("asymmetric scores %v, %v; want both ln 2", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero drain did not panic")
		}
	}()
	Proportionality(0, 1, 1, 1)
}
