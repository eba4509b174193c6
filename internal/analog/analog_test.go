package analog

import (
	"math"
	"testing"

	"braidio/internal/units"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAmplitudePowerRoundTrip(t *testing.T) {
	// -40 dBm (0.1 µW) into 50 Ω is ~3.16 mV peak — the paper's
	// "several mV for the comparator ⇒ around -40 dBm" arithmetic.
	p := PowerForAmplitude(3.16e-3)
	if !approx(float64(p.DBm()), -40, 0.055) {
		t.Errorf("3.16 mV peak = %v dBm, want ≈-40", p.DBm())
	}
}

func TestComparatorHysteresis(t *testing.T) {
	c := DefaultComparator
	// From low state, small positive input inside hysteresis: stays low.
	if c.Decide(0.5e-3, false) {
		t.Error("comparator flipped inside hysteresis band")
	}
	if !c.Decide(2e-3, false) {
		t.Error("comparator missed a clear high input")
	}
	// From high state, small negative input inside hysteresis: stays high.
	if !c.Decide(-0.5e-3, true) {
		t.Error("comparator dropped inside hysteresis band")
	}
	if c.Decide(-2e-3, true) {
		t.Error("comparator held through a clear low input")
	}
}

func TestInstAmpGainRollsOff(t *testing.T) {
	a := DefaultInstAmp
	low := a.EffectiveGain(10*units.Kilohertz, 0)
	high := a.EffectiveGain(10*units.Megahertz, 0)
	if !approx(low, a.Gain, 0.01*a.Gain) {
		t.Errorf("in-band gain = %v, want ≈%v", low, a.Gain)
	}
	if high >= low/2 {
		t.Errorf("gain did not roll off beyond bandwidth: %v vs %v", high, low)
	}
}

// TestInputCapacitanceMatters verifies the paper's design note: with the
// charge pump's high output impedance, a high-capacitance amplifier
// throttles the signal; the INA2331's 1.8 pF keeps the pole above the
// signal band.
func TestInputCapacitanceMatters(t *testing.T) {
	good := DefaultInstAmp
	bad := DefaultInstAmp
	bad.InputCapacitance = 100e-12
	const zs = 100e3 // pessimistic pump impedance
	f := units.Hertz(100e3)
	gGood := good.EffectiveGain(f, zs)
	gBad := bad.EffectiveGain(f, zs)
	if gBad >= gGood/2 {
		t.Errorf("100 pF amp gain %v not clearly worse than 1.8 pF amp %v", gBad, gGood)
	}
}

func TestInstAmpNoiseScalesWithBandwidth(t *testing.T) {
	a := DefaultInstAmp
	n1 := a.NoiseVoltage(10 * units.Kilohertz)
	n2 := a.NoiseVoltage(1 * units.Megahertz)
	if !approx(n2/n1, 10, 0.01) {
		t.Errorf("noise ratio over 100× bandwidth = %v, want 10", n2/n1)
	}
}

func TestHighPass(t *testing.T) {
	h := HighPass{Cutoff: 3 * units.Kilohertz}
	if g := h.Gain(3 * units.Kilohertz); !approx(g, 1/math.Sqrt2, 1e-6) {
		t.Errorf("gain at cutoff = %v, want 0.707", g)
	}
	if g := h.Gain(0); g != 0 {
		t.Errorf("DC gain = %v, want 0 (this is the self-interference rejection)", g)
	}
	if g := h.Gain(100 * units.Kilohertz); g < 0.99 {
		t.Errorf("passband gain = %v, want ≈1", g)
	}
}

func TestChainSensitivityBareDetector(t *testing.T) {
	c := DefaultChain()
	c.Amp = nil
	got := c.Sensitivity(units.Rate100k)
	// The paper: without amplification, around -40 dBm.
	if float64(got) < -45 || float64(got) > -35 {
		t.Errorf("bare detector sensitivity = %v dBm, want ≈-40", got)
	}
}

func TestChainSensitivityWithAmp(t *testing.T) {
	c := DefaultChain()
	bare := c
	bare.Amp = nil
	withAmp := c.Sensitivity(units.Rate100k)
	without := bare.Sensitivity(units.Rate100k)
	if withAmp >= without {
		t.Errorf("amplifier did not improve sensitivity: %v vs %v", withAmp, without)
	}
	// Improvement should be large but not reach active-radio -80 dBm
	// territory (the gap §3.2 concedes).
	if float64(withAmp) < -80 {
		t.Errorf("amplified sensitivity %v is implausibly good", withAmp)
	}
	if float64(withAmp) > -50 {
		t.Errorf("amplified sensitivity %v barely improved", withAmp)
	}
}

// TestSensitivityImprovesAtLowerBitrate verifies the noise-bandwidth
// scaling that underlies Fig. 13: slower bitrates see a quieter detector
// and reach farther.
func TestSensitivityImprovesAtLowerBitrate(t *testing.T) {
	c := DefaultChain()
	s1M := c.Sensitivity(units.Rate1M)
	s100k := c.Sensitivity(units.Rate100k)
	s10k := c.Sensitivity(units.Rate10k)
	if !(s10k < s100k && s100k < s1M) {
		t.Errorf("sensitivities not ordered: %v, %v, %v", s10k, s100k, s1M)
	}
	// Noise-limited regime scales 10 dB per decade of bandwidth.
	if d := float64(s1M - s100k); d < 8 || d > 12 {
		t.Errorf("1M→100k improvement = %v dB, want ≈10", d)
	}
}

func TestAntennaSwitchDefaults(t *testing.T) {
	if DefaultSwitch.Power > 10e-6 {
		t.Errorf("switch power %v exceeds the paper's <10 µW", DefaultSwitch.Power)
	}
	if DefaultSwitch.InsertionLoss <= 0 {
		t.Error("switch must have some insertion loss")
	}
}

func TestValidationPanics(t *testing.T) {
	c := DefaultChain()
	for name, f := range map[string]func(){
		"neg amp":      func() { PowerForAmplitude(-1) },
		"zero rate":    func() { c.Sensitivity(0) },
		"hp negative":  func() { (HighPass{Cutoff: 1}).Gain(-1) },
		"noise bw":     func() { DefaultInstAmp.NoiseVoltage(0) },
		"gain neg":     func() { DefaultInstAmp.EffectiveGain(-1, 0) },
		"unconfigured": func() { (Chain{}).Sensitivity(units.Rate1M) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
