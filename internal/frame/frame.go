// Package frame holds Braidio's link-layer frame layout and what the
// PHY and MAC derive from it: the on-air size of a frame, its framing
// efficiency, and the probability that a bit error rate corrupts it.
//
// A frame is a preamble for envelope-detector settling and bit
// synchronization, a sync word, a compact header, the payload, and a
// CRC-16 trailer. All three link modes share this layout, so a mode
// switch changes no frame size.
package frame

import (
	"fmt"
	"math"
)

// Frame layout constants (bytes).
const (
	// PreambleLen is the alternating 0xAA training sequence that lets
	// the charge pump and comparator settle and the receiver recover
	// bit timing.
	PreambleLen = 4
	// SyncLen is the frame-start marker length.
	SyncLen = 2
	// HeaderLen is the header: type, mode, sequence, payload length,
	// battery telemetry for the carrier-offload exchange, and an ACK.
	HeaderLen = 8
	// CRCLen is the CRC-16 trailer.
	CRCLen = 2
	// Overhead is everything but payload.
	Overhead = PreambleLen + SyncLen + HeaderLen + CRCLen
	// MaxPayload keeps frames short enough that per-frame error rates
	// stay manageable on the weak links.
	MaxPayload = 240
	// DefaultPayload is the payload size used by the characterization
	// experiments: with Overhead = 16 it yields the 93.75% framing
	// efficiency the energy model uses.
	DefaultPayload = MaxPayload
)

// WireSize returns the on-air size in bytes of a frame with the given
// payload length.
func WireSize(payloadLen int) int { return Overhead + payloadLen }

// WireBits returns the on-air size in bits.
func WireBits(payloadLen int) int { return 8 * WireSize(payloadLen) }

// Efficiency returns payload bits / on-air bits for a payload length.
func Efficiency(payloadLen int) float64 {
	if payloadLen < 0 {
		panic("frame: negative payload length")
	}
	return float64(8*payloadLen) / float64(WireBits(payloadLen))
}

// FrameErrorRate converts a bit error rate into the probability that a
// frame of the given payload length has at least one bit error:
// 1 − (1−BER)^bits.
func FrameErrorRate(ber float64, payloadLen int) float64 {
	if ber < 0 || ber > 1 {
		panic(fmt.Sprintf("frame: BER %v outside [0,1]", ber))
	}
	bits := float64(WireBits(payloadLen))
	return 1 - pow1m(ber, bits)
}

// pow1m computes (1-p)^n accurately for small p via log1p.
func pow1m(p, n float64) float64 {
	if p >= 1 {
		return 0
	}
	return math.Exp(n * math.Log1p(-p))
}
