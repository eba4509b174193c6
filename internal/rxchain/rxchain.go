// Package rxchain simulates Braidio's passive receive chain at the
// waveform level: a backscatter-modulated envelope riding on carrier
// self-interference passes through the charge-pump detector, the
// high-pass filter, the instrumentation amplifier, and the comparator,
// sample by sample, and the recovered bits are compared with what the
// tag sent.
//
// This is the end-to-end demonstration of §3.1's key insight — the
// static (and slowly drifting) self-interference becomes a DC/
// low-frequency component that the high-pass filter removes, leaving the
// kHz-and-up backscatter signal for the comparator — and the
// ground-truth validator for the analytic BER models the PHY uses.
package rxchain

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/analog"
	"braidio/internal/fading"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Config describes one waveform-level run.
type Config struct {
	// Rate is the backscatter bitrate.
	Rate units.BitRate
	// SamplesPerBit is the simulation oversampling (≥4).
	SamplesPerBit int
	// SignalAmplitude is the backscatter envelope swing at the detector
	// input, in volts (after the charge pump's small-signal boost).
	SignalAmplitude float64
	// NoiseRMS is the additive noise at the detector output, in volts
	// (amp input-referred noise over the signal bandwidth).
	NoiseRMS float64
	// SelfInterference is the carrier leakage process; its Level is in
	// the same detector-output volts. Zero Level disables it.
	SelfInterference fading.SelfInterference
	// HighPass is the DC-rejection filter. A zero cutoff disables
	// filtering (the ablation case, where self-interference saturates
	// the comparator's operating point).
	HighPass analog.HighPass
	// Comparator slices the filtered waveform.
	Comparator analog.Comparator
	// WarmupBits run through the chain before error counting starts,
	// letting the high-pass filter charge past the self-interference
	// step — the role the frame preamble plays on the real board.
	WarmupBits int
	// Seed drives noise and payload generation.
	Seed uint64
}

// DefaultConfig returns a chain at the given rate with the paper's
// component values and a healthy signal.
func DefaultConfig(rate units.BitRate, seed uint64) Config {
	return Config{
		Rate:             rate,
		SamplesPerBit:    8,
		SignalAmplitude:  20e-3,
		NoiseRMS:         2e-3,
		SelfInterference: fading.DefaultSelfInterference(1.0),
		HighPass:         analog.HighPass{Cutoff: units.Hertz(float64(rate) / 30)},
		Comparator:       analog.DefaultComparator,
		WarmupBits:       64,
		Seed:             seed,
	}
}

// Result summarizes a run.
type Result struct {
	// Bits transmitted.
	Bits int
	// Errors counted against the sent payload.
	Errors int
	// ResidualDC is the mean of the filtered waveform — how much
	// self-interference leaked past the high-pass filter.
	ResidualDC float64
	// SwingAtComparator is the separation between the mean comparator
	// input on one-bits and on zero-bits — the effective eye opening.
	SwingAtComparator float64
}

// BER returns the measured bit error rate.
func (r Result) BER() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Bits)
}

// check validates the fields chain.start and Runner.RunCoded share;
// unit names what SamplesPerBit samples span, a "bit" or a "symbol".
func (cfg Config) check(unit string) error {
	if cfg.SamplesPerBit < 4 {
		return fmt.Errorf("rxchain: %d samples/%s is too coarse", cfg.SamplesPerBit, unit)
	}
	if cfg.Rate <= 0 || cfg.SignalAmplitude <= 0 || cfg.NoiseRMS < 0 {
		return fmt.Errorf("rxchain: invalid config %+v", cfg)
	}
	if cfg.WarmupBits < 0 {
		return fmt.Errorf("rxchain: %d warm-up bits", cfg.WarmupBits)
	}
	return nil
}

// sampleTime is the time of sample s of bit (or symbol) i, dt apart.
// The waveform loops and driftBlock.fill all use it, so a drift block
// holds the phases SelfInterference.Sample would see.
func sampleTime(i, s, samplesPerBit int, dt float64) units.Second {
	return units.Second((float64(i)*float64(samplesPerBit) + float64(s)) * dt)
}

// chain is one waveform run, resumable between blocks of bits so that
// RunAll can advance runs sharing a drift waveform over one block of
// it at a time. The sample-level arithmetic (and therefore every draw
// and every float operation) is the golden contract the experiment
// notes pin — optimizations here must be bit-exact.
type chain struct {
	cfg       Config
	stream    rng.Stream
	res       Result
	dt, alpha float64
	// next is the next bit to run and total the run's bit count, both
	// warm-up included.
	next, total int

	// The filter, comparator and accumulators carried between blocks.
	prevIn, prevOut    float64
	initialized, latch bool
	oneSum, zeroSum    float64
	oneN, zeroN        int
	dcSum              float64
	samples            int
}

// start validates cfg and readies c to run n bits, its stream seeded
// with cfg.Seed.
func (c *chain) start(cfg Config, n int) error {
	if n <= 0 {
		return errors.New("rxchain: need at least one bit")
	}
	if err := cfg.check("bit"); err != nil {
		return err
	}
	dt := 1 / (float64(cfg.Rate) * float64(cfg.SamplesPerBit))
	// Single-pole high-pass: y[k] = a·(y[k-1] + x[k] − x[k-1]).
	alpha := 1.0
	if cfg.HighPass.Cutoff > 0 {
		rc := 1 / (2 * math.Pi * float64(cfg.HighPass.Cutoff))
		alpha = rc / (rc + dt)
	}
	*c = chain{cfg: cfg, res: Result{Bits: n}, dt: dt, alpha: alpha, total: n + cfg.WarmupBits}
	c.stream.Reseed(cfg.Seed)
	return nil
}

// advance runs bits c.next up to end. drift, when not nil, holds the
// drift sines of those bits' samples (see driftBlock) and stands in for
// SelfInterference.Sample with the same arithmetic.
func (c *chain) advance(end int, drift []float64) {
	cfg, stream, dt, alpha := c.cfg, &c.stream, c.dt, c.alpha
	si := cfg.SelfInterference
	prevIn, prevOut, initialized, state := c.prevIn, c.prevOut, c.initialized, c.latch
	oneSum, zeroSum, oneN, zeroN := c.oneSum, c.zeroSum, c.oneN, c.zeroN
	dcSum, samples, errs := c.dcSum, c.samples, c.res.Errors
	from := c.next
	for i := from; i < end; i++ {
		warm := i < cfg.WarmupBits
		bit := stream.Bool()
		// Integrate the filtered waveform over the bit for a matched
		// decision, mimicking the comparator+controller sampling.
		var integral float64
		for s := 0; s < cfg.SamplesPerBit; s++ {
			level := 0.0
			if bit {
				level = cfg.SignalAmplitude
			}
			var leak float64
			if drift != nil {
				leak = si.Level * (1 + si.DriftFraction*drift[(i-from)*cfg.SamplesPerBit+s])
			} else {
				leak = si.Sample(sampleTime(i, s, cfg.SamplesPerBit, dt))
			}
			x := level + leak + cfg.NoiseRMS*stream.Norm()
			var y float64
			if cfg.HighPass.Cutoff > 0 {
				if !initialized {
					prevIn, prevOut = x, 0
					initialized = true
				}
				y = alpha * (prevOut + x - prevIn)
				prevIn, prevOut = x, y
			} else {
				y = x
			}
			integral += y
			if !warm {
				dcSum += y
				samples++
			}
		}
		mean := integral / float64(cfg.SamplesPerBit)
		// The comparator slices around zero (the high-pass filter has
		// centred the waveform); hysteresis holds weak inputs.
		decided := cfg.Comparator.Decide(mean, state)
		state = decided
		if warm {
			continue
		}
		if bit {
			oneSum += mean
			oneN++
		} else {
			zeroSum += mean
			zeroN++
		}
		if decided != bit {
			errs++
		}
	}
	c.next = max(from, end)
	c.prevIn, c.prevOut, c.initialized, c.latch = prevIn, prevOut, initialized, state
	c.oneSum, c.zeroSum, c.oneN, c.zeroN = oneSum, zeroSum, oneN, zeroN
	c.dcSum, c.samples, c.res.Errors = dcSum, samples, errs
}

// finish returns the run's result once every bit has run.
func (c *chain) finish() Result {
	c.res.ResidualDC = c.dcSum / float64(c.samples)
	if c.oneN > 0 && c.zeroN > 0 {
		c.res.SwingAtComparator = c.oneSum/float64(c.oneN) - c.zeroSum/float64(c.zeroN)
	}
	return c.res
}
