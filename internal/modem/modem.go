// Package modem holds the bit-error-rate models that the link
// characterization (Figs. 12 and 13) is built on, one per detection
// scheme: non-coherent OOK (what the backscatter tag and the envelope
// detector speak), non-coherent binary FSK (what the tag uses at higher
// rates), coherent PSK (the active radio) and coherent 16-QAM, and
// their inverse, the SNR that reaches a target error rate.
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
