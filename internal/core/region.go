package core

import (
	"math"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// EffPoint is one corner of the Fig. 9 / Fig. 14 feasible region: a
// mode's transmitter and receiver energy efficiencies in bits per joule.
type EffPoint struct {
	Mode phy.Mode
	Rate units.BitRate
	// TXBitsPerJoule and RXBitsPerJoule are the axes of Fig. 9.
	TXBitsPerJoule, RXBitsPerJoule float64
}

// EfficiencyRatio returns the TX:RX efficiency ratio (>1 favors the
// transmitter, as in backscatter's 3546:1; <1 favors the receiver, as in
// passive's 1:2546).
func (p EffPoint) EfficiencyRatio() float64 {
	return p.TXBitsPerJoule / p.RXBitsPerJoule
}

// Region is the achievable operating region at one distance: the convex
// hull of the available modes' efficiency points (the shaded triangle of
// Fig. 9, degenerating to a line or point as modes drop out — Fig. 14).
type Region struct {
	Distance units.Meter
	Points   []EffPoint
}

// RegionAt characterizes the feasible region at a distance.
func RegionAt(m *phy.Model, d units.Meter) Region {
	var r Region
	r.Distance = d
	for _, l := range m.Characterize(d) {
		r.Points = append(r.Points, EffPoint{
			Mode:           l.Mode,
			Rate:           l.Rate,
			TXBitsPerJoule: l.T.BitsPerJoule(),
			RXBitsPerJoule: l.R.BitsPerJoule(),
		})
	}
	return r
}

// RatioSpan returns the extreme TX:RX efficiency ratios achievable by
// multiplexing — the dynamic range annotations of Fig. 9 ("1:2546 to
// 3546:1"). With no links it returns (NaN, NaN).
func (r Region) RatioSpan() (minRatio, maxRatio float64) {
	if len(r.Points) == 0 {
		return math.NaN(), math.NaN()
	}
	minRatio, maxRatio = math.Inf(1), math.Inf(-1)
	for _, p := range r.Points {
		ratio := p.EfficiencyRatio()
		minRatio = math.Min(minRatio, ratio)
		maxRatio = math.Max(maxRatio, ratio)
	}
	return minRatio, maxRatio
}

// DynamicRangeOrders returns how many orders of magnitude the ratio span
// covers (the paper's "seven orders of magnitude" at 0.3 m).
func (r Region) DynamicRangeOrders() float64 {
	min, max := r.RatioSpan()
	if math.IsNaN(min) || min <= 0 {
		return 0
	}
	return math.Log10(max / min)
}

// PointP returns the efficiency point a power-proportional pair with
// energy ratio e1:e2 would operate at — the paper's point P on line BC —
// by running the optimizer with that ratio over the region's links.
func PointP(m *phy.Model, d units.Meter, e1, e2 units.Joule) (EffPoint, error) {
	alloc, err := Optimize(m.Characterize(d), e1, e2)
	if err != nil {
		return EffPoint{}, err
	}
	return EffPoint{
		Mode:           alloc.Dominant(),
		TXBitsPerJoule: alloc.TX.BitsPerJoule(),
		RXBitsPerJoule: alloc.RX.BitsPerJoule(),
	}, nil
}
