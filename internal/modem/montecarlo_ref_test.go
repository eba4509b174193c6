package modem

import (
	"fmt"
	"math"

	"braidio/internal/rng"
)

// MonteCarloBER estimates the OOK envelope-detection error rate at a
// per-bit SNR by simulating transmission of n random bits through an
// additive-noise envelope channel with single-sample-per-bit matched
// integration. It exists to validate the analytic model; agreement within
// a factor of ~2 in the 1e-1..1e-4 regime is expected for the simplified
// detector.
//
// The n bits are drawn in fixed 64 Ki shards, shard i from the i-th
// Jump-chained substream of the passed stream's current state (the
// layout of rng.Substreams). The stream is advanced by one Jump (2^128
// steps) per shard, so successive calls on one stream still draw
// disjoint sequences.
func MonteCarloBER(s Scheme, snr float64, n int, stream *rng.Stream) float64 {
	if n <= 0 {
		panic("modem: non-positive sample count")
	}
	if stream == nil {
		panic("modem: nil stream")
	}
	if snr <= 0 {
		return 0.5
	}
	shards := (n + mcShardBits - 1) / mcShardBits
	total := 0
	for i := 0; i < shards; i++ {
		size := mcShardBits
		if i == shards-1 {
			size = n - (shards-1)*mcShardBits
		}
		// Stack copy of the shard's substream start state; the original
		// jumps past it, mirroring rng.Substreams' Clone-then-Jump chain
		// without allocating.
		sub := *stream
		total += monteCarloErrors(s, snr, size, &sub)
		stream.Jump()
	}
	return float64(total) / float64(n)
}

// monteCarloErrors simulates n bits through the scheme's envelope/noise
// channel on the given stream and returns the error count: one shard of
// MonteCarloBER.
func monteCarloErrors(s Scheme, snr float64, n int, stream *rng.Stream) int {
	errs := 0
	switch s {
	case OOKNonCoherent:
		// Envelope detection: "on" bits ride a Rician envelope, "off"
		// bits a Rayleigh envelope; threshold at half the signal
		// amplitude (the practical comparator setting).
		amp := math.Sqrt(2 * snr) // signal amplitude for unit-σ noise
		th := amp / 2
		for i := 0; i < n; i++ {
			bit := stream.Bool()
			var env float64
			if bit {
				env = stream.Rician(amp, 1)
			} else {
				env = stream.Rayleigh(1)
			}
			if (env > th) != bit {
				errs++
			}
		}
	case FSKNonCoherent:
		// Two envelope branches; the bit selects which branch carries
		// the tone, and the detector picks the larger envelope.
		amp := math.Sqrt(2 * snr)
		for i := 0; i < n; i++ {
			bit := stream.Bool()
			var b0, b1 float64
			if bit {
				b1 = stream.Rician(amp, 1)
				b0 = stream.Rayleigh(1)
			} else {
				b0 = stream.Rician(amp, 1)
				b1 = stream.Rayleigh(1)
			}
			if (b1 > b0) != bit {
				errs++
			}
		}
	case PSKCoherent:
		// Antipodal signaling in Gaussian noise.
		amp := math.Sqrt(2 * snr)
		for i := 0; i < n; i++ {
			bit := stream.Bool()
			sig := amp
			if !bit {
				sig = -amp
			}
			if (sig+stream.Norm() > 0) != bit {
				errs++
			}
		}
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
	return errs
}

// mcShardBits is MonteCarloBER's fixed shard size: the shard layout for
// n bits (how many shards, each shard's size and substream) is a pure
// function of n and the stream's state.
const mcShardBits = 1 << 16
