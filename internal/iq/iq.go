// Package iq provides the complex-baseband (in-phase/quadrature) signal
// helpers the field simulator uses. A Phasor is the complex amplitude of
// a narrowband signal; its magnitude squared is proportional to power and
// its argument is the carrier phase.
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

// Mag returns the magnitude (envelope) of the phasor.
func (p Phasor) Mag() float64 { return cmplx.Abs(complex128(p)) }

// Add returns the superposition of two phasors.
func (p Phasor) Add(q Phasor) Phasor { return p + q }

// Scale multiplies the magnitude by a real factor.
func (p Phasor) Scale(k float64) Phasor { return p * Phasor(complex(k, 0)) }

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
