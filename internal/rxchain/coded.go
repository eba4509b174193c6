package rxchain

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/linecode"
	"braidio/internal/units"
)

// CodedConfig extends the chain with a line code on the tag's bit
// stream. With an aggressive high-pass cutoff (needed when the
// self-interference drifts fast), uncoded NRZ data suffers baseline
// wander on long runs of identical bits; Manchester/FM0 coding bounds
// every run at two symbols and survives. This is why real backscatter
// uplinks (EPC Gen2) are FM0/Miller coded.
type CodedConfig struct {
	Config
	// Code is the tag's line code.
	Code linecode.Code
}

// DefaultCodedConfig returns an FM0-coded chain with a high cutoff
// (rate/4 — the hostile setting where NRZ wanders).
func DefaultCodedConfig(rate units.BitRate, seed uint64) CodedConfig {
	cfg := DefaultConfig(rate, seed)
	cfg.HighPass.Cutoff = units.Hertz(float64(rate) / 4)
	return CodedConfig{Config: cfg, Code: linecode.FM0}
}

// RunCoded pushes the given data bits (random when nil, using n) through
// the chain with the configured line code, overwriting *res with the
// result. The symbol rate is the bit rate times the code's expansion,
// keeping the information rate fixed; the detector integrates per symbol
// and the decoder maps symbols back to bits, counting coding violations
// as bit errors. Payload, symbol, decision and decode buffers all come
// from the Runner's reusable scratch.
func (ru *Runner) RunCoded(cfg CodedConfig, data []byte, n int, res *Result) error {
	if data == nil {
		if n <= 0 {
			return errors.New("rxchain: need bits")
		}
		// The payload stream is independent of the noise stream (seed ^
		// 0x5eed) and fully consumed before the noise stream starts, so
		// one reseeded Stream serves both roles.
		ru.stream.Reseed(cfg.Seed ^ 0x5eed)
		ru.payload = growBytes(ru.payload, n)
		for i := range ru.payload {
			ru.payload[i] = ru.stream.Bit()
		}
		data = ru.payload
	}
	if err := cfg.check("symbol"); err != nil {
		return err
	}

	ru.symbols = linecode.EncodeAppend(ru.symbols[:0], cfg.Code, data)
	symbols := ru.symbols
	spb := cfg.Code.SymbolsPerBit()
	symbolRate := float64(cfg.Rate) * float64(spb)
	dt := 1 / (symbolRate * float64(cfg.SamplesPerBit))

	alpha := 1.0
	if cfg.HighPass.Cutoff > 0 {
		rc := 1 / (2 * math.Pi * float64(cfg.HighPass.Cutoff))
		alpha = rc / (rc + dt)
	}

	ru.stream.Reseed(cfg.Seed)
	stream := &ru.stream
	var prevIn, prevOut float64
	var initialized bool
	state := false
	warmSymbols := cfg.WarmupBits * spb

	// Warmup preamble: alternating symbols, as a real preamble would be.
	decided := growBytes(ru.decided, len(symbols))[:0]
	process := func(idx int, level float64) byte {
		var integral float64
		for s := 0; s < cfg.SamplesPerBit; s++ {
			t := sampleTime(idx, s, cfg.SamplesPerBit, dt)
			x := level + cfg.SelfInterference.Sample(t) + cfg.NoiseRMS*stream.Norm()
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
		}
		mean := integral / float64(cfg.SamplesPerBit)
		state = cfg.Comparator.Decide(mean, state)
		if state {
			return 1
		}
		return 0
	}
	idx := 0
	for w := 0; w < warmSymbols; w++ {
		process(idx, float64(w%2)*cfg.SignalAmplitude)
		idx++
	}
	for _, sym := range symbols {
		level := 0.0
		if sym&1 == 1 {
			level = cfg.SignalAmplitude
		}
		decided = append(decided, process(idx, level))
		idx++
	}
	ru.decided = decided

	// Decode tolerantly — a symbol error corrupts its own bit, not the
	// rest of the stream (a strict decode would reject the stream at its
	// first violation; here we measure BER).
	*res = Result{Bits: len(data)}
	ru.decoded = decodeTolerantAppend(ru.decoded[:0], cfg.Code, decided)
	got := ru.decoded
	for i, b := range data {
		if i >= len(got) || got[i] != b {
			res.Errors++
		}
	}
	return nil
}

// decodeTolerantAppend appends the tolerant decode of symbols to dst.
func decodeTolerantAppend(dst []byte, c linecode.Code, symbols []byte) []byte {
	switch c {
	case linecode.NRZ:
		return append(dst, symbols...)
	case linecode.Manchester:
		for i := 0; i+1 < len(symbols); i += 2 {
			// 1,0 → 1; 0,1 → 0; violations fall back to the first
			// half-symbol.
			dst = append(dst, symbols[i]&1)
		}
		return dst
	case linecode.FM0:
		for i := 0; i+1 < len(symbols); i += 2 {
			// Data-1 has no mid-bit inversion; data-0 has one. The
			// boundary inversion carries no data, so this intra-pair
			// rule is violation-proof.
			if symbols[i]&1 == symbols[i+1]&1 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst
	default:
		panic(fmt.Sprintf("rxchain: unknown code %d", int(c)))
	}
}
