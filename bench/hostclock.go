package main

// Host speed. On a shared host, other tenants' load slows every
// instruction of a run: on the two-vCPU VM the benchmark was calibrated
// on, a fixed floating-point loop ran 50–70% slower in episodes lasting
// seconds to hours, with steal time near zero, and the median sim
// operation of ten runs spread by up to 27% in wall time. Lower
// percentiles do not help, since an episode often covers a whole run.
// The CPU-bound workloads
// (sim, serve-epoch, repro) therefore time a fixed reference kernel
// between timed intervals and report each interval at the reference's
// nominal speed:
//
//	scaled = wall × refNominalMS / ref
//
// where ref is the mean of the reference times just before and just
// after the interval. A change to braidio moves wall and scaled time
// alike; a host slowdown moves the interval and the reference alike, and
// cancels. Over twelve 8 s sim runs inside an episode, the median wall
// operation ranged 53–74 ms while its ratio to the reference held
// within 8%.

import (
	"math"
	"time"
)

// refIters sizes the reference kernel: about 3 ms on the calibration VM.
const refIters = 75_000

// refNominalMS is the reference kernel's median time on the calibration
// VM in a quiet spell. It only sets the scale of the scaled times, which
// therefore read as milliseconds on that VM when nothing else runs.
const refNominalMS = 3.0

// refSink keeps the reference kernel's result live.
var refSink float64

// refKernel runs the reference kernel and returns its wall time in ms:
// the special functions braidio's link model spends its CPU in (exp,
// log, erfc), on no memory beyond registers.
func refKernel() float64 {
	t0 := time.Now()
	x := 0.0
	for i := 0; i < refIters; i++ {
		f := float64(i)
		x += math.Exp(-f*1e-6) * math.Log(f+1.5) * math.Erfc(float64(i%100)*0.03)
	}
	refSink += x
	return ms(time.Since(t0))
}

// hostClock scales wall times to the reference speed. A nil clock leaves
// them as measured: serve-http uses none, as its latency is mostly the
// daemon's epoch timer, which host speed does not stretch.
type hostClock struct {
	last  float64       // the latest reference time, ms
	refs  dist          // every reference time of the run, ms
	spent time.Duration // their sum
}

// mark times the reference right before an interval.
func (c *hostClock) mark() {
	if c == nil {
		return
	}
	c.last = refKernel()
	c.refs = append(c.refs, c.last)
	c.spent += time.Duration(c.last * float64(time.Millisecond))
}

// spentTime is how long the reference has run so far, which workloads
// take out of the CPU time they report.
func (c *hostClock) spentTime() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// factor times the reference right after an interval that began at the
// last mark or factor, and returns what scales the interval to the
// reference speed. The same reference marks the next interval's start,
// so back-to-back operations pay for one reference each.
func (c *hostClock) factor() float64 {
	if c == nil {
		return 1
	}
	before := c.last
	c.mark()
	return refNominalMS / ((before + c.last) / 2)
}

// slowdown is the run's median reference time over the nominal one: 1
// on a quiet calibration VM, 1.5 in a typical contention episode.
func (c *hostClock) slowdown() float64 { return c.refs.median() / refNominalMS }
