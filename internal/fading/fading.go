// Package fading models the time-varying component of the wireless
// channel: Rayleigh/Rician block fading with a coherence time, and the
// slowly varying self-interference channel whose dynamics motivate
// Braidio's passive cancellation.
//
// §3.1 of the paper argues that even a dynamic self-interference channel
// has a coherence time in the order of milliseconds, so its spectral
// content sits below ~1 kHz and a high-pass filter separates it from the
// (tens of kHz and up) backscatter signal. SelfInterference exposes that
// residual low-frequency process so the receiver chain can demonstrate
// exactly that separation.
package fading

import (
	"fmt"
	"math"

	"braidio/internal/iq"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Static is a frequency-flat, time-invariant channel with unit gain and
// fixed phase — the paper's "empty 6 m × 6 m room, area cleared" setting.
type Static struct {
	// Phase is the fixed channel phase in radians.
	Phase float64
}

// Gain returns the channel's complex gain, the same at every time.
func (s Static) Gain(units.Second) iq.Phasor { return iq.FromPolar(1, s.Phase) }

// Block is block fading: the gain holds for one coherence interval and
// then redraws independently. Envelope is Rician with parameter K (the
// ratio of line-of-sight to diffuse power, in linear terms); K → ∞
// degenerates to Static and K = 0 is Rayleigh.
type Block struct {
	// CoherenceTime is the interval over which the gain holds. Must be
	// positive.
	CoherenceTime units.Second
	// K is the Rician K-factor (linear, not dB).
	K float64

	stream *rng.Stream
	// cache of drawn blocks so that repeated queries are consistent:
	// block index → gain. Blocks are drawn on demand in order.
	blocks []iq.Phasor
}

// NewBlock returns a block-fading channel drawing from the given stream.
func NewBlock(coherence units.Second, k float64, stream *rng.Stream) *Block {
	if coherence <= 0 {
		panic(fmt.Sprintf("fading: non-positive coherence time %v", float64(coherence)))
	}
	if k < 0 {
		panic(fmt.Sprintf("fading: negative K-factor %v", k))
	}
	if stream == nil {
		panic("fading: nil stream")
	}
	return &Block{CoherenceTime: coherence, K: k, stream: stream}
}

// Gain returns the channel's complex gain at time t. Queries must not go
// backwards by more than the cached history (all blocks since t=0 are
// cached, so any t ≥ 0 works).
func (b *Block) Gain(t units.Second) iq.Phasor {
	if t < 0 {
		panic(fmt.Sprintf("fading: negative time %v", float64(t)))
	}
	idx := int(float64(t) / float64(b.CoherenceTime))
	for len(b.blocks) <= idx {
		b.blocks = append(b.blocks, b.draw())
	}
	return b.blocks[idx]
}

// draw samples one block gain: a Rician envelope normalized to unit mean
// power, with uniform phase.
func (b *Block) draw() iq.Phasor {
	// Decompose unit mean power into LOS and diffuse parts:
	// nu² = K/(K+1), 2σ² = 1/(K+1).
	nu := math.Sqrt(b.K / (b.K + 1))
	sigma := math.Sqrt(1 / (2 * (b.K + 1)))
	env := b.stream.Rician(nu, sigma)
	phase := 2 * math.Pi * b.stream.Float64()
	return iq.FromPolar(env, phase)
}

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

// MaxDriftRate returns an upper bound on |d/dt Sample| / Level, the
// normalized slew of the interference. A high-pass filter whose cutoff
// (rad/s) exceeds this rate passes backscatter while rejecting the drift.
func (s SelfInterference) MaxDriftRate() float64 {
	if s.CoherenceTime <= 0 {
		return 0
	}
	return s.DriftFraction / float64(s.CoherenceTime)
}

// CoherenceFromDoppler converts a maximum Doppler shift (from relative
// motion v at carrier wavelength λ) to the standard coherence-time
// estimate T_c ≈ 0.423 / f_d used in the mobile-channel literature.
func CoherenceFromDoppler(speed float64, wavelength units.Meter) units.Second {
	if speed <= 0 || wavelength <= 0 {
		panic("fading: speed and wavelength must be positive")
	}
	fd := speed / float64(wavelength)
	return units.Second(0.423 / fd)
}
