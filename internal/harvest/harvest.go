// Package harvest models RF energy harvesting at the backscatter tag —
// the extension the paper's lineage points at: Braidio's passive front
// end is the Moo/WISP charge pump, and those platforms run battery-free
// on harvested carrier power. When the harvested power at the tag meets
// the tag's draw, the backscatter transmitter is perpetual: the reader
// pays for the tag's radio *and* its energy.
//
// The harvester model follows the Karthaus–Fischer transponder analysis
// the paper cites [33]: a rectifier with a minimum input power (the
// turn-on threshold, 16.7 µW in [33]) and a conversion efficiency that
// improves with input power toward a plateau.
package harvest

import (
	"math"

	"braidio/internal/phy"
	"braidio/internal/rf"
	"braidio/internal/units"
)

// Harvester is an RF-to-DC conversion model.
type Harvester struct {
	// Threshold is the minimum input power that produces any output
	// (rectifier turn-on). [33] reports 16.7 µW.
	Threshold units.Watt
	// PeakEfficiency is the asymptotic conversion efficiency at high
	// input power. UHF rectifiers reach 0.25–0.35.
	PeakEfficiency float64
	// HalfPoint is the input power at which efficiency reaches half the
	// peak, shaping the soft knee above threshold.
	HalfPoint units.Watt
}

// Default matches a Moo/WISP-class UHF harvester: 16.7 µW turn-on per
// [33], with the ~35% peak conversion efficiency state-of-the-art UHF
// rectifiers reach around −12 dBm input.
var Default = Harvester{
	Threshold:      16.7e-6,
	PeakEfficiency: 0.35,
	HalfPoint:      10e-6,
}

// Efficiency returns the conversion efficiency at a given input power:
// zero below threshold, rising along a saturating knee above it.
func (h Harvester) Efficiency(in units.Watt) float64 {
	if in <= h.Threshold {
		return 0
	}
	excess := float64(in - h.Threshold)
	return h.PeakEfficiency * excess / (excess + float64(h.HalfPoint))
}

// Output returns the harvested DC power for a given input power.
func (h Harvester) Output(in units.Watt) units.Watt {
	return units.Watt(float64(in) * h.Efficiency(in))
}

// IncidentPower returns the carrier power arriving at a tag at distance
// d from a Braidio board emitting its calibrated carrier, using the
// model's one-way budget minus the receive-path front-end loss (the
// harvester taps the antenna before the SAW filter).
func IncidentPower(m *phy.Model, d units.Meter) units.Watt {
	link := m.OneWay
	link.ExtraLoss = 0
	return link.Received(phy.CarrierPower, d).Watts()
}

// Budget compares harvest and draw for a tag at distance d backscattering
// at the given rate.
type Budget struct {
	Distance  units.Meter
	Rate      units.BitRate
	Incident  units.Watt
	Harvested units.Watt
	Draw      units.Watt
}

// Surplus returns harvested minus drawn power; non-negative means the
// tag is self-sustaining at this operating point.
func (b Budget) Surplus() units.Watt { return b.Harvested - b.Draw }

// SelfSustaining reports whether the tag can run forever here.
func (b Budget) SelfSustaining() bool { return b.Surplus() >= 0 }

// BudgetAt evaluates the harvest budget for a tag at distance d
// transmitting at rate r.
func BudgetAt(h Harvester, m *phy.Model, d units.Meter, r units.BitRate) Budget {
	in := IncidentPower(m, d)
	return Budget{
		Distance:  d,
		Rate:      r,
		Incident:  in,
		Harvested: h.Output(in),
		Draw:      phy.BackscatterTXPower(r),
	}
}

// SelfSustainingRange returns the maximum distance at which a tag
// backscattering at rate r is perpetual, found by bisection, and whether
// such a distance exists at all (the link must also still decode: the
// returned range is capped at the mode's communication range).
func SelfSustainingRange(h Harvester, m *phy.Model, r units.BitRate) (units.Meter, bool) {
	commRange := m.Range(phy.ModeBackscatter, r)
	if commRange <= 0 {
		return 0, false
	}
	at := func(d units.Meter) bool { return BudgetAt(h, m, d, r).SelfSustaining() }
	if !at(0.05) {
		return 0, false
	}
	if at(commRange) {
		return commRange, true
	}
	lo, hi := units.Meter(0.05), commRange
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// Uptime returns the duty cycle a tag can sustain at distance d and rate
// r by banking harvested energy while idle: harvested/draw, capped at 1.
// Below the harvester threshold it is zero. This is the WISP-style
// duty-cycled operation regime between "perpetual" and "dead".
func Uptime(h Harvester, m *phy.Model, d units.Meter, r units.BitRate) float64 {
	b := BudgetAt(h, m, d, r)
	if b.Harvested <= 0 {
		return 0
	}
	duty := float64(b.Harvested) / float64(b.Draw)
	return math.Min(duty, 1)
}

// FreeSpaceCheck confirms the harvester threshold corresponds to the
// free-space turn-on distance implied by [33]'s 16.7 µW at the
// calibrated carrier: useful as a sanity anchor in tests.
func FreeSpaceCheck(m *phy.Model) units.Meter {
	rx := func(d units.Meter) units.DBm {
		link := m.OneWay
		link.ExtraLoss = 0
		return link.Received(phy.CarrierPower, d)
	}
	d, ok := rf.RangeForSensitivity(rx, units.Watt(16.7e-6).DBm(), 0.01, 100)
	if !ok {
		return 0
	}
	return d
}
