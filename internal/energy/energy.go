// Package energy models the batteries whose asymmetry motivates Braidio:
// capacity accounting, drain tracking, the device catalog of Fig. 1, and
// the power-proportionality metric the carrier-offload algorithm targets.
package energy

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/units"
)

// Battery is an energy budget being drained. The zero value is an empty
// battery; use NewBattery.
type Battery struct {
	capacity  units.Joule
	remaining units.Joule
	drained   units.Joule
}

// NewBattery returns a full battery of the given capacity.
func NewBattery(capacity units.WattHour) *Battery {
	if capacity <= 0 {
		panic(fmt.Sprintf("energy: non-positive capacity %v Wh", float64(capacity)))
	}
	j := capacity.Joules()
	return &Battery{capacity: j, remaining: j}
}

// Capacity returns the battery's full capacity.
func (b *Battery) Capacity() units.Joule { return b.capacity }

// Remaining returns the remaining energy.
func (b *Battery) Remaining() units.Joule { return b.remaining }

// Drained returns the cumulative energy drawn.
func (b *Battery) Drained() units.Joule { return b.drained }

// Fraction returns the remaining fraction in [0, 1].
func (b *Battery) Fraction() float64 {
	if b.capacity == 0 {
		return 0
	}
	return float64(b.remaining / b.capacity)
}

// Empty reports whether the battery is exhausted.
func (b *Battery) Empty() bool { return b.remaining <= 0 }

// Drain removes energy from the battery. Draining more than remains
// empties the battery and returns false; the overdraw is not recorded (a
// real device browns out). Negative drains panic.
func (b *Battery) Drain(e units.Joule) bool {
	if e < 0 {
		panic(fmt.Sprintf("energy: negative drain %v J", float64(e)))
	}
	if e > b.remaining {
		b.drained += b.remaining
		b.remaining = 0
		return false
	}
	b.remaining -= e
	b.drained += e
	return true
}

// DrainPower drains at constant power for a duration.
func (b *Battery) DrainPower(p units.Watt, t units.Second) bool {
	return b.Drain(units.Energy(p, t))
}

// TimeLeft returns how long the battery lasts at a constant power draw.
func (b *Battery) TimeLeft(p units.Watt) units.Second {
	return units.Duration(b.remaining, p)
}

// Telemetry quantizes the remaining fraction to the 8-bit field carried
// in frame headers for the offload exchange.
func (b *Battery) Telemetry() uint8 {
	return uint8(math.Round(b.Fraction() * 255))
}

// Device is an entry of the Fig. 1 catalog.
type Device struct {
	// Name as the paper labels it.
	Name string
	// Capacity is the battery capacity in watt-hours. Values are from
	// the public teardowns/spec sheets the paper cites ([3]–[17]);
	// where a product line spans capacities we use the value consistent
	// with Fig. 1's log-scale placement.
	Capacity units.WattHour
	// Class is a coarse grouping used in reports.
	Class string
}

// NewBattery returns a full battery for the device.
func (d Device) NewBattery() *Battery { return NewBattery(d.Capacity) }

// ErrBadDevice reports a device whose battery capacity is not a positive
// finite number: NewBattery panics on a capacity that is not positive,
// and a NaN or infinite one is no budget a solve can use. net and the
// root API return it too.
var ErrBadDevice = errors.New("energy: device capacity is not positive and finite")

// CheckDevice returns an error wrapping ErrBadDevice unless d's capacity
// is positive and finite. Entry points that make batteries from devices
// run it first, so a bad device is an error rather than a panic.
func CheckDevice(d Device) error {
	if c := float64(d.Capacity); !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("%w: %q has %v Wh", ErrBadDevice, d.Name, c)
	}
	return nil
}

// Catalog is the Fig. 1 device list in the paper's order (smallest to
// largest battery).
var Catalog = []Device{
	{Name: "Nike Fuel Band", Capacity: 0.20, Class: "wearable"},
	{Name: "Pebble Watch", Capacity: 0.48, Class: "wearable"},
	{Name: "Apple Watch", Capacity: 0.78, Class: "wearable"},
	{Name: "Pivothead", Capacity: 1.63, Class: "wearable"},
	{Name: "iPhone 6S", Capacity: 6.55, Class: "phone"},
	{Name: "iPhone 6 Plus", Capacity: 11.1, Class: "phone"},
	{Name: "Nexus 6P", Capacity: 13.26, Class: "phone"},
	{Name: "Surface Book", Capacity: 70.0, Class: "laptop"},
	{Name: "MacBook Pro 13", Capacity: 74.9, Class: "laptop"},
	{Name: "MacBook Pro 15", Capacity: 99.5, Class: "laptop"},
}

// DeviceByName looks up a catalog entry.
func DeviceByName(name string) (Device, bool) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// CapacitySpan returns the catalog's max/min capacity ratio — the "three
// orders of magnitude" the introduction leads with.
func CapacitySpan() float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, d := range Catalog {
		c := float64(d.Capacity)
		min = math.Min(min, c)
		max = math.Max(max, c)
	}
	return max / min
}

// Proportionality measures how closely two drains match a target energy
// ratio: it returns |log((d1/d2)/(e1/e2))|, zero when the split is
// perfectly power-proportional. Both drains must be positive. No program
// calls it: energy's tests and core's TestBraidPowerProportional hold
// the braid's drains to it.
func Proportionality(drain1, drain2 units.Joule, budget1, budget2 units.Joule) float64 {
	if drain1 <= 0 || drain2 <= 0 || budget1 <= 0 || budget2 <= 0 {
		panic("energy: proportionality needs positive drains and budgets")
	}
	return math.Abs(math.Log(float64(drain1/drain2) / float64(budget1/budget2)))
}
