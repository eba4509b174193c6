package analog

import (
	"math"
	"testing"

	"braidio/internal/fading"
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

func TestComparatorDetects(t *testing.T) {
	c := DefaultComparator
	if c.Detects(1e-3) {
		t.Error("detected a swing below threshold")
	}
	if !c.Detects(6e-3) {
		t.Error("missed a swing above threshold")
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

func TestSAWFilter(t *testing.T) {
	s := DefaultSAW
	if got := s.Attenuation(915 * units.Megahertz); got != s.InsertionLoss {
		t.Errorf("in-band attenuation = %v, want %v", got, s.InsertionLoss)
	}
	if got := s.Attenuation(800 * units.Megahertz); got != 50 {
		t.Errorf("800 MHz rejection = %v, want 50 dB", got)
	}
	if got := s.Attenuation(2400 * units.Megahertz); got != 30 {
		t.Errorf("2.4 GHz rejection = %v, want 30 dB", got)
	}
}

func TestSAWRejectsInterferer(t *testing.T) {
	s := DefaultSAW
	// A 20 dBm WiFi blast at 2.4 GHz lands at -10 dBm after 30 dB
	// rejection: still above a -40 dBm tolerance → not rejected.
	if s.Rejects(2400*units.Megahertz, 20, -40) {
		t.Error("strong in-band-adjacent interferer should not be rejected to -40 dBm")
	}
	// A 0 dBm cellular signal at 800 MHz lands at -50 dBm: rejected.
	if !s.Rejects(800*units.Megahertz, 0, -40) {
		t.Error("800 MHz interferer should be rejected")
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

func TestChainPowerDraw(t *testing.T) {
	c := DefaultChain()
	p := c.PowerDraw()
	// Amp + comparator: tens of µW — the "passive receiver consumes
	// minimal power" claim.
	if p <= 0 || p > 100e-6 {
		t.Errorf("chain power = %v, want O(10 µW)", p)
	}
	c.Amp = nil
	if c.PowerDraw() >= p {
		t.Error("removing the amp did not reduce power")
	}
}

// TestSelfInterferenceRejection ties the chain to the fading model: the
// millisecond-coherence drift of §3.1 is suppressed by ≥40 dB relative to
// a 100 kbps signal.
func TestSelfInterferenceRejection(t *testing.T) {
	c := DefaultChain()
	si := fading.DefaultSelfInterference(1.0)
	if !c.RejectsSelfInterference(si.MaxDriftRate(), units.Rate100k, 100) {
		t.Error("chain fails to reject millisecond-coherence self-interference by 40 dB")
	}
	// A pathologically fast channel (coherence ~ bit time) defeats it.
	fast := fading.SelfInterference{Level: 1, DriftFraction: 1, CoherenceTime: 1e-5}
	if c.RejectsSelfInterference(fast.MaxDriftRate(), units.Rate10k, 100) {
		t.Error("chain should not claim rejection of in-band interference dynamics")
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

func TestChainString(t *testing.T) {
	if s := DefaultChain().String(); s == "" {
		t.Error("empty chain description")
	}
}

func TestValidationPanics(t *testing.T) {
	c := DefaultChain()
	for name, f := range map[string]func(){
		"neg amp":      func() { PowerForAmplitude(-1) },
		"zero rate":    func() { c.Sensitivity(0) },
		"saw zero":     func() { DefaultSAW.Attenuation(0) },
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
