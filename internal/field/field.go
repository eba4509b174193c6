// Package field computes the two-dimensional signal-strength maps behind
// the paper's phase-cancellation analysis (Fig. 4) and the antenna
// diversity microbenchmark (Fig. 6).
//
// The model is the phasor geometry of §3.2: a carrier antenna and an
// envelope-detecting receive antenna are fixed; a backscatter tag at some
// position modulates between two reflection states. The receiver's
// non-coherent detector sees only the envelope of (background + tag
// signal), so the detectable amplitude is the projection of the tag's
// differential vector onto the background vector — it collapses when the
// two are orthogonal, creating null arcs at positions where the
// round-trip path length puts the tag signal in quadrature.
package field

import (
	"fmt"
	"math"

	"braidio/internal/iq"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// Vec2 is a position in the room plane, in meters.
type Vec2 struct{ X, Y float64 }

// Dist returns the Euclidean distance between two positions.
func (v Vec2) Dist(o Vec2) float64 { return math.Hypot(v.X-o.X, v.Y-o.Y) }

// Scene describes the measurement geometry: the carrier (transmit)
// antenna, one or two receive antennas, and the detection model
// parameters.
type Scene struct {
	// Wavelength of the carrier in meters (915 MHz ⇒ 0.3276 m).
	Wavelength float64
	// TX is the carrier antenna position.
	TX Vec2
	// RX is the primary receive antenna position.
	RX Vec2
	// RXDiv is the diversity receive antenna position; nil disables
	// diversity. The paper separates the two chip antennas by λ/8.
	RXDiv *Vec2
	// RefSNR is the signal-to-noise ratio, in dB, of a perfectly aligned
	// (cos θ = 1) tag whose forward and reverse path lengths are both
	// 1 m. It calibrates the absolute level of the map.
	RefSNR units.DB
	// BackgroundPhase is the phase of the static background vector
	// (direct TX→RX leakage) at the detector, in radians.
	BackgroundPhase float64
	// BackgroundRatio, when positive, switches SNRAt to the exact
	// finite-background envelope model: the background vector's
	// amplitude is this multiple of the tag signal's amplitude at unit
	// path product (d1·d2 = 1 m²). Zero keeps the paper's asymptotic
	// A = 2·cos(θ)·|Vtx| approximation, which assumes the background
	// dwarfs the tag signal everywhere.
	BackgroundRatio float64
}

// PaperScene reproduces the geometry of Fig. 4(b): TX at (0.95, 0.5), RX
// at (1.05, 0.5) in a 2 m × 2 m area, 915 MHz, with the diversity antenna
// λ/8 from the primary.
func PaperScene() *Scene {
	wl := float64((915 * units.Megahertz).Wavelength())
	div := Vec2{1.05 + wl/8, 0.5}
	return &Scene{
		Wavelength: wl,
		TX:         Vec2{0.95, 0.5},
		RX:         Vec2{1.05, 0.5},
		RXDiv:      &div,
		RefSNR:     30,
	}
}

// tagTheta returns the angle between the tag's differential vector and
// the background vector for a tag at p observed by antenna rx.
func (s *Scene) tagTheta(p, rx Vec2) float64 {
	d1 := s.TX.Dist(p)
	d2 := p.Dist(rx)
	direct := s.TX.Dist(rx)
	// The background is the direct leakage (path length = direct); the
	// tag signal accrues phase over d1 + d2. Their relative angle is the
	// phase difference of the two paths.
	return 2*math.Pi*(d1+d2-direct)/s.Wavelength + s.BackgroundPhase
}

// SNRAt returns the envelope-detected SNR, in dB, of a tag at p received
// on a specific antenna position. Positions coincident with an antenna
// (within 1 cm) are clamped to 1 cm to keep the near-field amplitude
// finite.
func (s *Scene) SNRAt(p, rx Vec2) units.DB {
	const nearField = 0.01
	d1 := math.Max(s.TX.Dist(p), nearField)
	d2 := math.Max(p.Dist(rx), nearField)
	theta := s.tagTheta(p, rx)
	var amp float64
	if s.BackgroundRatio > 0 {
		// Exact non-coherent detection: the comparator sees
		// | |B + s| − |B − s| | for tag states ±s riding on the
		// background phasor B. Near the antennas, where |s| rivals B,
		// this saturates instead of growing without bound.
		sig := iq.FromPolar(1/(d1*d2), theta)
		bg := iq.FromPolar(s.BackgroundRatio, 0)
		amp = iq.EnvelopeDelta(bg, sig.Scale(-1), sig) / 2
	} else {
		// The paper's strong-background asymptote: A = 2·cos(θ)·|Vtx|.
		amp = math.Abs(math.Cos(theta)) / (d1 * d2)
	}
	if amp <= 0 {
		return units.DB(math.Inf(-1))
	}
	return s.RefSNR + units.DB(20*math.Log10(amp))
}

// SNR returns the detected SNR at the primary antenna only (the
// "without antenna diversity" curve of Fig. 6).
func (s *Scene) SNR(p Vec2) units.DB { return s.SNRAt(p, s.RX) }

// SNRDiversity returns the best SNR over the available receive antennas
// (the "with antenna diversity" curve of Fig. 6). With no diversity
// antenna configured it equals SNR.
func (s *Scene) SNRDiversity(p Vec2) units.DB {
	best := s.SNRAt(p, s.RX)
	if s.RXDiv != nil {
		if alt := s.SNRAt(p, *s.RXDiv); alt > best {
			best = alt
		}
	}
	return best
}

// Map is a rectangular grid of SNR values.
type Map struct {
	X0, Y0, X1, Y1 float64
	NX, NY         int
	// SNR holds NY rows of NX values, row-major, SNR[iy][ix].
	SNR [][]units.DB
}

// FieldMap samples the scene over [x0,x1]×[y0,y1] on an nx×ny grid using
// the primary antenna, reproducing Fig. 4(b). It panics on a degenerate
// grid.
func (s *Scene) FieldMap(x0, y0, x1, y1 float64, nx, ny int) *Map {
	if nx < 2 || ny < 2 || x1 <= x0 || y1 <= y0 {
		panic(fmt.Sprintf("field: degenerate grid %dx%d over [%v,%v]x[%v,%v]", nx, ny, x0, x1, y0, y1))
	}
	m := &Map{X0: x0, Y0: y0, X1: x1, Y1: y1, NX: nx, NY: ny, SNR: make([][]units.DB, ny)}
	for iy := 0; iy < ny; iy++ {
		row := make([]units.DB, nx)
		y := y0 + (y1-y0)*float64(iy)/float64(ny-1)
		for ix := 0; ix < nx; ix++ {
			x := x0 + (x1-x0)*float64(ix)/float64(nx-1)
			row[ix] = s.SNR(Vec2{x, y})
		}
		m.SNR[iy] = row
	}
	return m
}

// MinMax reports the extreme finite SNR values in the map.
func (m *Map) MinMax() (min, max units.DB) {
	min, max = units.DB(math.Inf(1)), units.DB(math.Inf(-1))
	for _, row := range m.SNR {
		for _, v := range row {
			if math.IsInf(float64(v), 0) {
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	return min, max
}

// LineSweep samples SNR along the straight segment from a to b at n
// evenly spaced points, returning distance-along-the-line vs SNR. With
// diversity true the best antenna is used at every point. This produces
// the curves of Fig. 4(c) and Fig. 6.
func (s *Scene) LineSweep(a, b Vec2, n int, diversity bool) stats.Series {
	if n < 2 {
		panic("field: line sweep needs at least two points")
	}
	out := make(stats.Series, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		p := Vec2{a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y)}
		var v units.DB
		if diversity {
			v = s.SNRDiversity(p)
		} else {
			v = s.SNR(p)
		}
		out[i] = stats.Point{X: f * a.Dist(b), Y: float64(v)}
	}
	return out
}

// Nulls returns the X positions of local minima in a series that fall
// below the given threshold — the phase-cancellation nulls of Fig. 4(c).
func Nulls(s stats.Series, below float64) []float64 {
	var nulls []float64
	for i := 1; i < len(s)-1; i++ {
		if s[i].Y < below && s[i].Y <= s[i-1].Y && s[i].Y <= s[i+1].Y {
			nulls = append(nulls, s[i].X)
		}
	}
	return nulls
}

// WorstCase returns the minimum Y over the series.
func WorstCase(s stats.Series) float64 {
	min := math.Inf(1)
	for _, p := range s {
		if p.Y < min {
			min = p.Y
		}
	}
	return min
}
