package rxchain

import (
	"math"
	"testing"

	"braidio/internal/analog"
	"braidio/internal/fading"
	"braidio/internal/modem"
	"braidio/internal/units"
)

// TestCleanChainIsErrorFree: a healthy signal (SNR ≈ 23 dB) through the
// full chain — self-interference, high-pass, comparator — decodes
// without errors.
func TestCleanChainIsErrorFree(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 1)
	res, err := Run(cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors at SNR %.0f (%.1f dB)", res.Errors, cfg.SNR(), 10*math.Log10(cfg.SNR()))
	}
	if res.Bits != 20000 {
		t.Errorf("bits = %d", res.Bits)
	}
}

// TestSelfInterferenceRejection is §3.1 end-to-end: a self-interference
// level 50× the signal amplitude leaves only a negligible residual after
// the high-pass filter, and decoding still works.
func TestSelfInterferenceRejection(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 2)
	cfg.SelfInterference = fading.DefaultSelfInterference(1.0) // 1 V vs 20 mV signal
	res, err := Run(cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BER() > 1e-3 {
		t.Errorf("BER %v under 50× self-interference", res.BER())
	}
	// The residual mean must be small relative to the interference.
	if math.Abs(res.ResidualDC) > 0.05*cfg.SelfInterference.Level {
		t.Errorf("residual DC %.3g vs interference %.3g", res.ResidualDC, cfg.SelfInterference.Level)
	}
}

// TestNoFilterFails is the ablation: without the high-pass filter the
// self-interference parks the comparator input far above threshold and
// half the bits (all the zeros) decode wrong.
func TestNoFilterFails(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 3)
	cfg.HighPass = analog.HighPass{}
	res, err := Run(cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if ber := res.BER(); ber < 0.4 {
		t.Errorf("BER without DC rejection = %v; expected ≈0.5 (all zero-bits wrong)", ber)
	}
}

// TestDynamicInterferenceStillRejected: the drifting (millisecond-
// coherence) interference of §3.1 is still below the filter's cutoff.
func TestDynamicInterferenceStillRejected(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 4)
	cfg.SelfInterference = fading.SelfInterference{
		Level: 1.0, DriftFraction: 0.1, CoherenceTime: 2e-3,
	}
	res, err := Run(cfg, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if ber := res.BER(); ber > 1e-3 {
		t.Errorf("BER under dynamic interference = %v", ber)
	}
}

// TestBERTrackingAnalytic sweeps the noise level and compares the
// measured BER with the coherent-slicing analytic curve within an order
// of magnitude — the cross-validation DESIGN.md promises.
func TestBERTrackingAnalytic(t *testing.T) {
	for _, snrDB := range []float64{6, 9, 12} {
		cfg := DefaultConfig(units.Rate100k, uint64(100+int(snrDB)))
		// Dial NoiseRMS for the target SNR.
		target := math.Pow(10, snrDB/10)
		cfg.NoiseRMS = cfg.SignalAmplitude / 2 * math.Sqrt(float64(cfg.SamplesPerBit)/target)
		// Disable hysteresis, self-interference, and (mostly) baseline
		// wander for a clean comparison with the memoryless analytic
		// detector: what remains is the slicer in Gaussian noise.
		cfg.Comparator.Hysteresis = 0
		cfg.SelfInterference = fading.SelfInterference{}
		cfg.HighPass = analog.HighPass{Cutoff: units.Hertz(float64(cfg.Rate) / 300)}
		cfg.WarmupBits = 2000
		res, err := Run(cfg, 300000)
		if err != nil {
			t.Fatal(err)
		}
		measured := res.BER()
		// The integrated slicer is antipodal-like around the threshold:
		// Pb = Q(√snr) for OOK with optimal threshold.
		analytic := 0.5 * math.Erfc(math.Sqrt(target)/math.Sqrt2)
		if measured == 0 {
			t.Errorf("snr %v dB: measured zero errors, analytic %v — sample size too small?", snrDB, analytic)
			continue
		}
		ratio := measured / analytic
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("snr %v dB: measured %v vs analytic %v (ratio %v)", snrDB, measured, analytic, ratio)
		}
	}
}

// TestBERMonotoneInNoise: more noise, more errors.
func TestBERMonotoneInNoise(t *testing.T) {
	prev := -1.0
	for _, noise := range []float64{5e-3, 8e-3, 12e-3, 18e-3} {
		cfg := DefaultConfig(units.Rate100k, 9)
		cfg.NoiseRMS = noise
		cfg.Comparator.Hysteresis = 0
		res, err := Run(cfg, 100000)
		if err != nil {
			t.Fatal(err)
		}
		ber := res.BER()
		if ber < prev {
			t.Errorf("BER fell from %v to %v as noise rose to %v", prev, ber, noise)
		}
		prev = ber
	}
	if prev == 0 {
		t.Error("no errors even at the highest noise level; sweep too easy")
	}
}

// TestHysteresisSuppressesChatter: with borderline signal, hysteresis
// reduces error bursts compared to a zero-hysteresis comparator.
func TestHysteresisSuppressesChatter(t *testing.T) {
	base := DefaultConfig(units.Rate100k, 10)
	base.SignalAmplitude = 6e-3
	base.NoiseRMS = 3e-3

	with := base
	with.Comparator.Hysteresis = 1e-3
	without := base
	without.Comparator.Hysteresis = 0

	rw, err := Run(with, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(without, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Hysteresis is not a win for independent symbol decisions — it is
	// for runtime chatter — so only require it not to be catastrophic.
	if rw.BER() > 5*ro.BER()+0.01 {
		t.Errorf("hysteresis BER %v vs none %v", rw.BER(), ro.BER())
	}
}

func TestSwingReported(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 11)
	res, err := Run(cfg, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// The eye opening at the comparator should be on the order of the
	// signal amplitude (the high-pass filter preserves the bit-to-bit
	// separation while stripping the DC).
	if res.SwingAtComparator < 0.5*cfg.SignalAmplitude || res.SwingAtComparator > 1.5*cfg.SignalAmplitude {
		t.Errorf("swing %.3g vs signal amplitude %.3g", res.SwingAtComparator, cfg.SignalAmplitude)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 1)
	if _, err := Run(cfg, 0); err == nil {
		t.Error("zero bits accepted")
	}
	bad := cfg
	bad.SamplesPerBit = 2
	if _, err := Run(bad, 10); err == nil {
		t.Error("coarse sampling accepted")
	}
	bad = cfg
	bad.SignalAmplitude = 0
	if _, err := Run(bad, 10); err == nil {
		t.Error("zero amplitude accepted")
	}
}

// TestNegativeWarmupRejected: a negative WarmupBits would run fewer bits
// than the result reports (none at all once n + WarmupBits ≤ 0, leaving
// a NaN residual), so every entry point refuses it.
func TestNegativeWarmupRejected(t *testing.T) {
	for _, warm := range []int{-100, -1} {
		cfg := DefaultConfig(units.Rate100k, 1)
		cfg.WarmupBits = warm
		if res, err := Run(cfg, 10); err == nil {
			t.Errorf("Run with %d warm-up bits: %+v, nil error", warm, *res)
		}
		if _, err := RunAll([]Config{cfg, cfg}, 10, 1); err == nil {
			t.Errorf("RunAll with %d warm-up bits: nil error", warm)
		}
		coded := DefaultCodedConfig(units.Rate100k, 1)
		coded.WarmupBits = warm
		if _, err := RunCoded(coded, nil, 10); err == nil {
			t.Errorf("RunCoded with %d warm-up bits: nil error", warm)
		}
	}
}

func TestSNRHelper(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 1)
	if snr := cfg.SNR(); snr < 100 {
		t.Errorf("default SNR = %v, want comfortably high", snr)
	}
	cfg.NoiseRMS = 0
	if !math.IsInf(cfg.SNR(), 1) {
		t.Error("noiseless SNR should be +Inf")
	}
	// The helper feeds the same scheme the modem uses.
	_ = modem.OOKNonCoherent
}

func TestDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(units.Rate100k, 42), 10000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(units.Rate100k, 42), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Errors != b.Errors || a.ResidualDC != b.ResidualDC {
		t.Error("same-seed runs diverged")
	}
}

func BenchmarkRun(b *testing.B) {
	cfg := DefaultConfig(units.Rate100k, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
