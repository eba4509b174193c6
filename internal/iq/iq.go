// Package iq provides complex-baseband (in-phase/quadrature) signal
// helpers used by the field simulator and the modem. A Phasor is the
// complex amplitude of a narrowband signal; its magnitude squared is
// proportional to power and its argument is the carrier phase.
//
// The phase-cancellation analysis of §3.2 of the paper (Fig. 4 and 5) is
// entirely a statement about phasors: the envelope detector sees only the
// magnitude |V_bg + V_tag|, so when the tag's two states move the resultant
// along a circle centred on the background vector, the magnitude change —
// and hence the detectable signal — collapses as the tag vector becomes
// orthogonal to the background.
package iq

import (
	"math"
	"math/cmplx"
)

// Phasor is a complex baseband amplitude. The convention throughout the
// simulator: |p|² is power in watts (so |p| is in √W), and arg(p) is the
// carrier phase in radians.
type Phasor complex128

// FromPolar builds a phasor from magnitude and phase (radians).
func FromPolar(mag, phase float64) Phasor {
	return Phasor(cmplx.Rect(mag, phase))
}

// FromPower builds a phasor carrying the given power (watts) at the given
// phase. It panics on negative power.
func FromPower(p, phase float64) Phasor {
	if p < 0 {
		panic("iq: negative power")
	}
	return FromPolar(math.Sqrt(p), phase)
}

// Mag returns the magnitude (envelope) of the phasor.
func (p Phasor) Mag() float64 { return cmplx.Abs(complex128(p)) }

// Power returns the power carried by the phasor, |p|².
func (p Phasor) Power() float64 {
	m := p.Mag()
	return m * m
}

// Add returns the superposition of two phasors.
func (p Phasor) Add(q Phasor) Phasor { return p + q }

// Scale multiplies the magnitude by a real factor.
func (p Phasor) Scale(k float64) Phasor { return p * Phasor(complex(k, 0)) }

// Rotate advances the phase by the given angle in radians, e.g. the phase
// accumulated over a propagation path.
func (p Phasor) Rotate(rad float64) Phasor {
	return p * Phasor(cmplx.Rect(1, rad))
}

// I returns the in-phase component.
func (p Phasor) I() float64 { return real(complex128(p)) }

// Q returns the quadrature component.
func (p Phasor) Q() float64 { return imag(complex128(p)) }

// EnvelopeDelta returns the change in envelope magnitude seen by a
// non-coherent detector when a backscatter tag switches its reflection
// between states s0 and s1 on top of a static background bg (carrier
// self-interference plus environmental reflections):
//
//	Δ = | |bg + s1| − |bg + s0| |
//
// This is the quantity that collapses at phase-cancellation nulls even
// though |s1 − s0| is unchanged.
func EnvelopeDelta(bg, s0, s1 Phasor) float64 {
	return math.Abs(bg.Add(s1).Mag() - bg.Add(s0).Mag())
}

// PathPhase returns the carrier phase accumulated over a path of the given
// length at the given wavelength: 2π·d/λ, reduced to [0, 2π).
func PathPhase(distance, wavelength float64) float64 {
	if wavelength <= 0 {
		panic("iq: non-positive wavelength")
	}
	turns := distance / wavelength
	frac := turns - math.Floor(turns)
	return 2 * math.Pi * frac
}
