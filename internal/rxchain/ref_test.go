package rxchain

import (
	"math"

	"braidio/internal/linecode"
)

// References the package's tests check the live chain against: Run, one
// chain run alone from start to finish, which RunAll must equal; the
// allocating forms of the coded run and the tolerant decode; and
// Config.SNR, the analytic per-bit SNR the measured error rates track.

// Run pushes n random bits through the chain and returns the result.
func Run(cfg Config, n int) (*Result, error) {
	res := new(Result)
	if err := run(cfg, n, res); err != nil {
		return nil, err
	}
	return res, nil
}

// run is Run overwriting *res: one chain over all of its bits.
func run(cfg Config, n int, res *Result) error {
	var c chain
	if err := c.start(cfg, n); err != nil {
		return err
	}
	c.advance(c.total, nil)
	*res = c.finish()
	return nil
}

// Run is run on a Runner, as the Runner tests call it.
func (ru *Runner) Run(cfg Config, n int, res *Result) error {
	return run(cfg, n, res)
}

// RunCoded pushes the given data bits (random when nil, using n) through
// the chain with the configured line code. The symbol rate is the bit
// rate times the code's expansion, keeping the information rate fixed;
// the detector integrates per symbol and the decoder maps symbols back
// to bits, counting coding violations as bit errors. It is the
// allocating form of Runner.RunCoded.
func RunCoded(cfg CodedConfig, data []byte, n int) (*Result, error) {
	res := new(Result)
	if err := NewRunner().RunCoded(cfg, data, n, res); err != nil {
		return nil, err
	}
	return res, nil
}

// decodeTolerant maps symbols to bits pairwise, pushing violations into
// the affected bit only.
func decodeTolerant(c linecode.Code, symbols []byte) []byte {
	return decodeTolerantAppend(nil, c, symbols)
}

// SNR returns the chain's effective per-bit SNR (linear): the matched
// decision statistic's signal-to-noise after integrating SamplesPerBit
// samples.
func (cfg Config) SNR() float64 {
	if cfg.NoiseRMS <= 0 {
		return math.Inf(1)
	}
	// The decision variable is the bit mean: signal separation
	// amplitude/2 around the slicing point, noise σ/√spb.
	sigma := cfg.NoiseRMS / math.Sqrt(float64(cfg.SamplesPerBit))
	a := cfg.SignalAmplitude / 2
	return a * a / (sigma * sigma)
}
