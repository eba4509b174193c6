package harvest

import (
	"math"
	"testing"

	"braidio/internal/phy"
	"braidio/internal/units"
)

func TestEfficiencyShape(t *testing.T) {
	h := Default
	if got := h.Efficiency(10e-6); got != 0 {
		t.Errorf("below-threshold efficiency = %v, want 0", got)
	}
	if got := h.Efficiency(h.Threshold); got != 0 {
		t.Errorf("at-threshold efficiency = %v, want 0", got)
	}
	// Monotone rising toward the peak.
	prev := -1.0
	for _, in := range []units.Watt{20e-6, 50e-6, 200e-6, 1e-3, 10e-3} {
		e := h.Efficiency(in)
		if e <= prev {
			t.Fatalf("efficiency not increasing at %v", in)
		}
		if e >= h.PeakEfficiency {
			t.Fatalf("efficiency %v exceeded the peak %v", e, h.PeakEfficiency)
		}
		prev = e
	}
	// Approaches the plateau at high power.
	if e := h.Efficiency(0.1); e < 0.95*h.PeakEfficiency {
		t.Errorf("high-power efficiency = %v, want near %v", e, h.PeakEfficiency)
	}
}

func TestOutputConsistent(t *testing.T) {
	h := Default
	in := units.Watt(100e-6)
	if got, want := h.Output(in), units.Watt(float64(in)*h.Efficiency(in)); got != want {
		t.Errorf("Output = %v, want %v", got, want)
	}
}

func TestIncidentPowerFallsWithDistance(t *testing.T) {
	m := phy.NewModel()
	p1 := IncidentPower(m, 0.3)
	p2 := IncidentPower(m, 1)
	if p1 <= p2 {
		t.Errorf("incident power did not fall: %v at 0.3 m vs %v at 1 m", p1, p2)
	}
	// At 0.3 m with 13 dBm carrier and −2 dBi antennas: 9 dBm − FSPL(0.3)
	// ≈ −12.2 dBm ≈ 60 µW.
	if got := p1.Microwatts(); math.Abs(got-60) > 8 {
		t.Errorf("incident at 0.3 m = %v µW, want ≈60", got)
	}
	// The harvester taps before the SAW filter: incident exceeds what
	// the (lossy) receive chain sees.
	if IncidentPower(m, 0.3) <= m.ReceivedPower(phy.ModePassive, 0.3).Watts() {
		t.Error("harvester tap should bypass the front-end loss")
	}
}

// TestPerpetualTagNearReader is the extension's headline: at close range
// the harvested carrier power covers the 10 kbps tag draw entirely —
// battery-free backscatter.
func TestPerpetualTagNearReader(t *testing.T) {
	m := phy.NewModel()
	b := BudgetAt(Default, m, 0.3, units.Rate10k)
	if !b.SelfSustaining() {
		t.Errorf("tag not self-sustaining at 0.3 m/10 kbps: %v", b)
	}
	// At 1 Mbps the draw roughly doubles; check the budget is at least
	// reported coherently.
	b1M := BudgetAt(Default, m, 0.3, units.Rate1M)
	if b1M.Draw <= b.Draw {
		t.Error("1 Mbps tag should draw more than 10 kbps tag")
	}
}

func TestSelfSustainingRange(t *testing.T) {
	m := phy.NewModel()
	r10k, ok := SelfSustainingRange(Default, m, units.Rate10k)
	if !ok {
		t.Fatal("no self-sustaining range at 10 kbps")
	}
	if r10k < 0.25 || r10k > 1.0 {
		t.Errorf("self-sustaining range = %v m, want a few tens of cm", r10k)
	}
	// Exactly at the range the budget balances (unless capped by comm
	// range).
	b := BudgetAt(Default, m, r10k, units.Rate10k)
	if math.Abs(float64(b.Surplus())) > 1e-7 && r10k < m.Range(phy.ModeBackscatter, units.Rate10k)*0.999 {
		t.Errorf("budget at the boundary has surplus %v", b.Surplus())
	}
	// Slower rates sustain farther than faster ones.
	r1M, ok := SelfSustainingRange(Default, m, units.Rate1M)
	if ok && r1M > r10k {
		t.Errorf("1 Mbps sustains farther (%v) than 10 kbps (%v)", r1M, r10k)
	}
}

func TestSelfSustainingRangeImpossible(t *testing.T) {
	weak := Default
	weak.Threshold = 1 // 1 W turn-on: hopeless
	if _, ok := SelfSustainingRange(weak, phy.NewModel(), units.Rate10k); ok {
		t.Error("hopeless harvester reported a range")
	}
}

func TestUptime(t *testing.T) {
	m := phy.NewModel()
	if got := Uptime(Default, m, 0.3, units.Rate10k); got != 1 {
		t.Errorf("uptime at 0.3 m = %v, want 1 (perpetual)", got)
	}
	// Beyond the perpetual knee but above rectifier turn-on:
	// duty-cycled operation.
	mid := Uptime(Default, m, 0.5, units.Rate10k)
	if mid <= 0 || mid >= 1 {
		t.Errorf("uptime at 0.5 m = %v, want in (0,1)", mid)
	}
	// Far away: dead (below rectifier threshold).
	if got := Uptime(Default, m, 5, units.Rate10k); got != 0 {
		t.Errorf("uptime at 5 m = %v, want 0", got)
	}
	// Monotone non-increasing with distance.
	prev := 2.0
	for d := 0.2; d < 3; d += 0.2 {
		u := Uptime(Default, m, units.Meter(d), units.Rate10k)
		if u > prev+1e-12 {
			t.Fatalf("uptime rose with distance at %v m", d)
		}
		prev = u
	}
}

func TestFreeSpaceCheck(t *testing.T) {
	// The [33] threshold of 16.7 µW at our carrier/antennas corresponds
	// to a turn-on distance of roughly 0.5–0.8 m.
	d := FreeSpaceCheck(phy.NewModel())
	if d < 0.3 || d > 1.2 {
		t.Errorf("turn-on distance = %v m, want ≈0.5–0.8", d)
	}
}
