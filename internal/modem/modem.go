// Package modem implements the modulation and detection layer: OOK/ASK
// (what the backscatter tag and envelope detector speak), binary FSK
// (what the tag uses at higher rates), and the bit-error-rate models that
// the link characterization (Figs. 12 and 13) is built on.
//
// Analytic BER expressions for non-coherent detection are the standard
// ones from digital-communications texts:
//
//	non-coherent OOK : Pb = ½·exp(−γ/4)·(1 + erfc-ish corrections) ≈ ½·exp(−γ/4)
//	non-coherent FSK : Pb = ½·exp(−γ/2)
//	coherent    PSK  : Pb = Q(√(2γ))
//
// where γ is the per-bit SNR. We use the dominant exponential terms; the
// package's tests check them against a Monte-Carlo detector within the
// accuracy the experiments need.
package modem

import (
	"fmt"
	"math"

	"braidio/internal/units"
)

// Scheme identifies a modulation / detection scheme.
type Scheme int

// Supported schemes.
const (
	// OOKNonCoherent is on-off keying with envelope detection: the
	// backscatter uplink and the passive-receiver downlink.
	OOKNonCoherent Scheme = iota
	// FSKNonCoherent is binary FSK with non-coherent discrimination,
	// used by the tag's several-MHz-clock FSK option.
	FSKNonCoherent
	// PSKCoherent is coherent BPSK, the active radio's class of
	// detection.
	PSKCoherent
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case OOKNonCoherent:
		return "OOK(non-coherent)"
	case FSKNonCoherent:
		return "FSK(non-coherent)"
	case PSKCoherent:
		return "PSK(coherent)"
	case QAM16Coherent:
		return "16-QAM(coherent)"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BER returns the analytic bit error rate for a given per-bit SNR
// (linear). SNR ≤ 0 yields 0.5 (pure guessing).
func BER(s Scheme, snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	var p float64
	switch s {
	case OOKNonCoherent:
		// Optimal-threshold envelope detection of OOK.
		p = 0.5 * math.Exp(-snr/4)
	case FSKNonCoherent:
		p = 0.5 * math.Exp(-snr/2)
	case PSKCoherent:
		p = qfunc(math.Sqrt(2 * snr))
	case QAM16Coherent:
		p = qam16BER(snr)
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// BERFromDB is BER with the SNR given in dB.
func BERFromDB(s Scheme, snr units.DB) float64 { return BER(s, snr.Ratio()) }

// SNRForBER inverts BER: the per-bit SNR (linear) needed to reach a
// target error rate. It panics for targets outside (0, 0.5).
func SNRForBER(s Scheme, target float64) float64 {
	if target <= 0 || target >= 0.5 {
		panic(fmt.Sprintf("modem: BER target %v outside (0, 0.5)", target))
	}
	switch s {
	case OOKNonCoherent:
		return -4 * math.Log(2*target)
	case FSKNonCoherent:
		return -2 * math.Log(2*target)
	case PSKCoherent, QAM16Coherent:
		// Bisection on the monotone tail expressions.
		lo, hi := 0.0, 1000.0
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if BER(s, mid) > target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
}

// Waveform synthesis: the tag's view of a bit stream as envelope samples.

// OOKWaveform expands bits into an envelope waveform with the given
// samples per bit and high/low levels (e.g. the two reflection states of
// the RF transistor).
func OOKWaveform(bits []byte, samplesPerBit int, low, high float64) []float64 {
	return OOKWaveformInto(nil, bits, samplesPerBit, low, high)
}

// OOKWaveformInto is OOKWaveform writing into dst's storage: the result
// reuses dst's capacity when it suffices (zero allocations steady-state)
// and is freshly allocated otherwise. Pass the previous return value back
// in to amortize the buffer across frames.
func OOKWaveformInto(dst []float64, bits []byte, samplesPerBit int, low, high float64) []float64 {
	if samplesPerBit < 1 {
		panic("modem: samplesPerBit must be ≥ 1")
	}
	n := len(bits) * samplesPerBit
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i, b := range bits {
		level := low
		if b != 0 {
			level = high
		}
		period := dst[i*samplesPerBit : (i+1)*samplesPerBit]
		for s := range period {
			period[s] = level
		}
	}
	return dst
}

// DetectOOK integrates each bit period of a (possibly noisy) envelope
// waveform and slices against the midpoint threshold, returning the
// recovered bits.
//
// Truncation contract: only complete bit periods are decoded. A trailing
// partial period (the last len(wave) % samplesPerBit samples) carries no
// decidable bit and is silently discarded; callers that need to resume
// mid-stream should use DetectOOKInto, which reports how many samples
// were consumed so the remainder can be carried into the next call.
func DetectOOK(wave []float64, samplesPerBit int, low, high float64) []byte {
	bits, _ := DetectOOKInto(nil, wave, samplesPerBit, low, high)
	return bits
}

// DetectOOKInto is DetectOOK writing into dst's storage, returning the
// recovered bits and the number of samples consumed (always a multiple
// of samplesPerBit; the unconsumed tail wave[consumed:] is a partial bit
// period awaiting more samples). The result reuses dst's capacity when
// it suffices and is freshly allocated otherwise.
func DetectOOKInto(dst []byte, wave []float64, samplesPerBit int, low, high float64) (bits []byte, consumed int) {
	if samplesPerBit < 1 {
		panic("modem: samplesPerBit must be ≥ 1")
	}
	n := len(wave) / samplesPerBit
	threshold := (low + high) / 2
	if cap(dst) < n {
		dst = make([]byte, n)
	} else {
		dst = dst[:n]
	}
	for i := 0; i < n; i++ {
		period := wave[i*samplesPerBit : (i+1)*samplesPerBit]
		sum := 0.0
		for _, v := range period {
			sum += v
		}
		if sum/float64(samplesPerBit) > threshold {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst, n * samplesPerBit
}

// SchemeForMode returns the detection scheme each Braidio mode uses:
// the active link is a coherent radio; both envelope-detected links are
// non-coherent OOK.
func SchemeForMode(passiveOrBackscatter bool) Scheme {
	if passiveOrBackscatter {
		return OOKNonCoherent
	}
	return PSKCoherent
}

// QAM16Coherent is 16-QAM with coherent detection — the high-order
// backscatter modulation of Thomas & Reynolds [48] that quadruples
// throughput per symbol. Added as an extension; Braidio's prototype
// links are binary.
const QAM16Coherent Scheme = 3

// QAM16BitsPerSymbol is the spectral advantage over the binary schemes.
const QAM16BitsPerSymbol = 4

// qam16BER returns the standard Gray-coded 16-QAM bit error
// approximation: Pb ≈ (3/4)·Q(√(0.8·γb)).
func qam16BER(snr float64) float64 {
	p := 0.75 * qfunc(math.Sqrt(0.8*snr))
	if p > 0.5 {
		p = 0.5
	}
	return p
}
