package experiments

import (
	"fmt"
	"math"

	"braidio/internal/chargepump"
	"braidio/internal/inventory"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// ExtInventory runs the multi-tag extension: one Braidio board as a
// Gen2-style reader enumerating a swarm of backscatter tags with the Q
// algorithm.
func ExtInventory() (*Report, error) {
	r := &Report{
		ID:    "ext-inventory",
		Title: "Multi-tag inventory with the Gen2 Q algorithm",
		PaperClaim: "extension: the AS3993 baseline 'supports direct mode and makes it " +
			"possible to implement customized Backscatter protocols' — here is one",
	}
	rows := [][]string{}
	for _, n := range []int{1, 10, 100, 1000} {
		res, err := inventory.Run(inventory.DefaultConfig(units.Rate100k, 1), n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Slots),
			fmt.Sprintf("%.2f", res.SlotsPerTag()),
			fmt.Sprintf("%.2f", res.Efficiency()),
			fmt.Sprintf("%.3g s", float64(res.Duration)),
			fmt.Sprintf("%.3g J", float64(res.ReaderEnergy)),
			fmt.Sprintf("%.3g µJ", float64(res.TagEnergy)*1e6),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "inventory rounds at 100 kbps",
		Header: []string{"Tags", "Slots", "Slots/tag", "Efficiency", "Airtime", "Reader J", "Per-tag energy"},
		Rows:   rows,
	})
	r.AddNote("slotted ALOHA's oracle bound is 1/e ≈ 0.37 successes/slot; the Q algorithm lands nearby without knowing the population")
	return r, nil
}

// ExtOutage quantifies what multipath fading does to the clean-room
// regime boundaries: for each distance, the fraction of Rician
// block-fading realizations in which each mode still decodes. Each
// distance's draws are decided against its fade edge (newFadeEdge), one
// bisection of phy.Available per K-factor and distance.
func ExtOutage() (*Report, error) {
	r := &Report{
		ID:    "ext-outage",
		Title: "Mode outage probability under Rician fading",
		PaperClaim: "extension: the paper clears the room ('we clear the area to " +
			"minimize the effect of environmental reflections'); this is what reflections cost",
	}
	base := phy.NewModel()
	for _, kf := range outageKFactors {
		var series stats.Series
		outageFades(kf.k, func(d float64, margins []units.DB) {
			edge := newFadeEdge(base, units.Meter(d))
			outages := 0
			for _, m := range margins {
				if ok, _ := edge.available(m); !ok {
					outages++
				}
			}
			series = append(series, stats.Point{X: d, Y: float64(outages) / outageDraws})
		})
		r.Series = append(r.Series, NamedSeries{
			Name: fmt.Sprintf("backscatter outage vs m, %s", kf.name),
			Data: series,
		})
		edge, ok := series.CrossAbove(0.05)
		if ok {
			r.AddNote("%s: 5%% backscatter outage at %.2f m (clean-room range 2.4 m)", kf.name, edge)
		} else {
			r.AddNote("%s: outage stays under 5%% across the sweep", kf.name)
		}
	}
	r.AddNote("the §4.2 fallback machinery exists exactly for these realizations")
	return r, nil
}

// outageKFactors are ext-outage's Rician K-factors.
var outageKFactors = []struct {
	name string
	k    float64
}{{"K=10 (strong LOS)", 10}, {"K=2 (cluttered)", 2}}

// outageDraws is ext-outage's number of fades per distance.
const outageDraws = 2000

// outageFades walks ext-outage's sweep for Rician factor k: distances
// 0.3–3.0 m in 0.15 m steps, outageDraws block fades at each, all from
// one stream. It calls visit once per distance with each fade's margin
// in dB: a fade multiplies the one-way amplitude by the Rician envelope,
// and the round-trip backscatter link sees it twice. margins is reused
// between calls.
func outageFades(k float64, visit func(d float64, margins []units.DB)) {
	stream := rng.New(77)
	nu := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	margins := make([]units.DB, outageDraws)
	for d := 0.3; d <= 3.0; d += 0.15 {
		for i := range margins {
			margins[i] = units.DB(-40 * math.Log10(stream.Rician(nu, sigma)))
		}
		visit(d, margins)
	}
}

// fadeGuard is how near (dB) a fade margin must fall to its distance's
// fade edge to be decided by phy.Available itself.
const fadeGuard = 1e-6

// fadeEdge is where backscatter at one distance stops being
// phy.Available as the fade margin grows: Available holds at lo and
// fails at hi, a nanodecibel or less apart.
type fadeEdge struct {
	faded  phy.Model
	d      units.Meter
	lo, hi units.DB
}

// newFadeEdge bisects base's backscatter availability at d over the fade
// margin. Should Available not flip inside ±1000 dB, the edge spans
// every margin and each one gets the exact call.
func newFadeEdge(base *phy.Model, d units.Meter) *fadeEdge {
	e := &fadeEdge{faded: *base, d: d, lo: -1000, hi: 1000}
	if !e.exact(e.lo) || e.exact(e.hi) {
		e.lo, e.hi = units.DB(math.Inf(-1)), units.DB(math.Inf(1))
		return e
	}
	for e.hi-e.lo > 1e-9 {
		if mid := (e.lo + e.hi) / 2; e.exact(mid) {
			e.lo = mid
		} else {
			e.hi = mid
		}
	}
	return e
}

// exact is phy.Available for backscatter at the edge's distance under
// fade margin m.
func (e *fadeEdge) exact(m units.DB) bool {
	e.faded.FadeMargin = m
	return e.faded.Available(phy.ModeBackscatter, e.d)
}

// available reports whether backscatter survives fade margin m. A margin
// more than fadeGuard below the edge survives and one more than fadeGuard
// above it does not, without a call; one inside the band gets the exact
// call, reported by inBand, so the shortcut never leans on Available
// being monotone at the scale of float rounding.
func (e *fadeEdge) available(m units.DB) (ok, inBand bool) {
	switch {
	case m < e.lo-fadeGuard:
		return true, false
	case m > e.hi+fadeGuard:
		return false, false
	}
	return e.exact(m), true
}

// ExtPump sweeps the charge pump's stage count: boost versus loaded sag
// — the sensitivity/impedance trade §3.2 describes.
func ExtPump() (*Report, error) {
	r := &Report{
		ID:    "ext-pump",
		Title: "Charge pump stage-count trade-off",
		PaperClaim: "§3.2: 'a charge pump can boost the signal by 2N times ... but it " +
			"also increases the output impedance significantly'",
	}
	rows := [][]string{}
	for n := 1; n <= 6; n++ {
		p := chargepump.Default()
		p.Stages = n
		// Small-signal detector regime: the Schottky operates square-law
		// below its drop, so the ideal-diode (zero-drop) analytic model
		// is the right envelope here.
		p.DiodeDrop = 0
		open := p.OutputDC(0.05) // a weak 50 mV RF input
		z := p.OutputImpedance(1e6)
		// Sag against a 100 kΩ load (a mediocre amplifier input).
		p.LoadResistance = 100e3
		loaded := p.LoadedOutput(0.05, 1e6)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f mV", open*1e3),
			fmt.Sprintf("%.0f kΩ", z/1e3),
			fmt.Sprintf("%.1f mV", loaded*1e3),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "Dickson pump vs stages (50 mV input, ideal-diode analytic model)",
		Header: []string{"Stages", "Open-circuit out", "Output impedance", "Into 100 kΩ"},
		Rows:   rows,
	})
	r.AddNote("more stages only help into a high-impedance load — the INA2331's near-open input is what makes N>1 useful")
	return r, nil
}
