// Package fading models the slowly varying self-interference channel
// whose dynamics motivate Braidio's passive cancellation.
//
// §3.1 of the paper argues that even a dynamic self-interference channel
// has a coherence time in the order of milliseconds, so its spectral
// content sits below ~1 kHz and a high-pass filter separates it from the
// (tens of kHz and up) backscatter signal. SelfInterference exposes that
// residual low-frequency process so the receiver chain can demonstrate
// exactly that separation.
package fading

import (
	"math"

	"braidio/internal/units"
)

// SelfInterference models the residual carrier leakage seen by the
// passive receiver: a large DC (static) component plus a small
// low-frequency drift whose bandwidth is set by the coherence time. After
// the charge pump converts it to baseband, a high-pass filter with a
// cutoff above the drift bandwidth removes it (§3.1).
type SelfInterference struct {
	// Level is the static leakage amplitude (linear, in the envelope
	// domain of the charge-pump output).
	Level float64
	// DriftFraction is the relative amplitude of the low-frequency
	// drift component (e.g. 0.05 for ±5% sway).
	DriftFraction float64
	// CoherenceTime sets the drift rate; the drift completes one cycle
	// in roughly 2π coherence times, keeping its spectrum below
	// 1/CoherenceTime Hz.
	CoherenceTime units.Second
	// PhaseOffset decorrelates multiple instances.
	PhaseOffset float64
}

// DefaultSelfInterference matches the paper's assumption: millisecond
// coherence (spectral content under 1 kHz).
func DefaultSelfInterference(level float64) SelfInterference {
	return SelfInterference{Level: level, DriftFraction: 0.05, CoherenceTime: 2e-3}
}

// Sample returns the leakage amplitude at time t.
func (s SelfInterference) Sample(t units.Second) float64 {
	if s.CoherenceTime <= 0 {
		return s.Level
	}
	drift := s.DriftFraction * math.Sin(float64(t)/float64(s.CoherenceTime)+s.PhaseOffset)
	return s.Level * (1 + drift)
}
