// Package analog provides behavioural models of the analog front-end
// components Braidio adds to a BLE-style active radio (§3.2, Table 3/4):
// the envelope-detector receive chain (charge pump → instrumentation
// amplifier → comparator), the SAW band filter, and the antenna switch.
//
// These models capture the properties that matter to the system — gains,
// thresholds, noise, bandwidth, insertion loss, power draw — rather than
// transistor-level behaviour (internal/circuit covers that for the charge
// pump). Their composition, Chain, yields the passive receiver's
// sensitivity from first principles, which the PHY's calibrated
// sensitivity table is validated against.
package analog

import (
	"math"

	"braidio/internal/units"
)

// AntennaImpedance is the system reference impedance in ohms.
const AntennaImpedance = 50.0

// PowerForAmplitude returns the available power at the antenna port
// whose peak RF voltage is v: P = v²/(2·R).
func PowerForAmplitude(v float64) units.Watt {
	if v < 0 {
		panic("analog: negative amplitude")
	}
	return units.Watt(v * v / (2 * AntennaImpedance))
}

// Comparator models a nanopower comparator (NCS2200 / TS881 class).
type Comparator struct {
	// Threshold is the minimum differential input that produces a
	// correct decision, in volts. Datasheets put this at a few mV.
	Threshold float64
	// Hysteresis is the additional margin required to flip an already
	// latched output, suppressing chatter around the threshold.
	Hysteresis float64
}

// DefaultComparator matches the TS881-class parts cited by the paper.
var DefaultComparator = Comparator{Threshold: 5e-3, Hysteresis: 1e-3}

// Decide returns the comparator output for a differential input given the
// previous output state. Inputs inside the hysteresis band hold the
// previous state.
func (c Comparator) Decide(diff float64, prev bool) bool {
	if prev {
		return diff > -c.Hysteresis
	}
	return diff > c.Hysteresis
}

// InstAmp models the instrumentation amplifier (INA2331 class) inserted
// between the charge pump and the comparator to recover sensitivity.
type InstAmp struct {
	// Gain is the voltage gain (linear).
	Gain float64
	// Bandwidth is the -3 dB bandwidth in Hz; signals faster than this
	// are attenuated (single-pole model).
	Bandwidth units.Hertz
	// InputCapacitance in farads. Together with the charge pump's large
	// output impedance this forms a low-pass pole; the paper stresses
	// the INA2331's low 1.8 pF input capacitance for exactly this
	// reason.
	InputCapacitance float64
	// InputNoiseDensity is the input-referred noise in V/√Hz.
	InputNoiseDensity float64
}

// DefaultInstAmp matches the INA2331 parameters the paper cites.
var DefaultInstAmp = InstAmp{
	Gain:              100,
	Bandwidth:         2 * units.Megahertz,
	InputCapacitance:  1.8e-12,
	InputNoiseDensity: 46e-9,
}

// EffectiveGain returns the amplifier gain at a signal frequency f when
// driven from a source of the given output impedance: the nominal gain
// rolled off by both the amplifier pole and the source/input-capacitance
// pole.
func (a InstAmp) EffectiveGain(f units.Hertz, sourceImpedance float64) float64 {
	if f < 0 || sourceImpedance < 0 {
		panic("analog: negative frequency or impedance")
	}
	g := a.Gain
	if a.Bandwidth > 0 {
		g /= math.Sqrt(1 + math.Pow(float64(f)/float64(a.Bandwidth), 2))
	}
	if a.InputCapacitance > 0 && sourceImpedance > 0 {
		fc := 1 / (2 * math.Pi * sourceImpedance * a.InputCapacitance)
		g /= math.Sqrt(1 + math.Pow(float64(f)/fc, 2))
	}
	return g
}

// NoiseVoltage returns the input-referred RMS noise over a bandwidth.
func (a InstAmp) NoiseVoltage(bw units.Hertz) float64 {
	if bw <= 0 {
		panic("analog: non-positive bandwidth")
	}
	return a.InputNoiseDensity * math.Sqrt(float64(bw))
}

// SAWFilter models the passive band filter at the radio front end
// (SF2049E class, 902–928 MHz passband). It consumes no power; the
// chain's sensitivity pays its passband insertion loss.
type SAWFilter struct {
	// InsertionLoss inside the passband.
	InsertionLoss units.DB
}

// DefaultSAW matches the SF2049E used on the Braidio board.
var DefaultSAW = SAWFilter{InsertionLoss: 2}

// AntennaSwitch models the SPDT switch (SKY13267 class) that selects
// between the two diversity antennas.
type AntennaSwitch struct {
	// InsertionLoss per pass.
	InsertionLoss units.DB
	// Power is the control draw (the paper quotes <10 µW).
	Power units.Watt
	// SwitchTime is how long a changeover takes.
	SwitchTime units.Second
}

// DefaultSwitch matches the SKY13267.
var DefaultSwitch = AntennaSwitch{InsertionLoss: 0.35, Power: 8e-6, SwitchTime: 1e-6}

// HighPass is the single-pole high-pass filter that strips the DC /
// low-frequency self-interference component from the detected envelope
// (§3.1's key insight).
type HighPass struct {
	// Cutoff is the -3 dB corner in Hz.
	Cutoff units.Hertz
}

// Gain returns the filter's magnitude response at frequency f.
func (h HighPass) Gain(f units.Hertz) float64 {
	if f < 0 {
		panic("analog: negative frequency")
	}
	if h.Cutoff <= 0 {
		return 1
	}
	x := float64(f) / float64(h.Cutoff)
	return x / math.Sqrt(1+x*x)
}

// Chain is the complete passive receive chain: antenna → SAW → charge
// pump (represented by its boost and output impedance) → high-pass →
// amplifier → comparator.
type Chain struct {
	SAW SAWFilter
	// PumpBoost is the charge pump's small-signal voltage boost (2N for
	// N stages).
	PumpBoost float64
	// PumpOutputImpedance at the signal bitrate's fundamental, ohms.
	PumpOutputImpedance float64
	HighPass            HighPass
	Amp                 *InstAmp // nil = no amplifier (bare detector)
	Comparator          Comparator
	// RequiredSNR is the post-detection SNR (linear amplitude ratio)
	// needed for the target bit error rate; ≈4 (12 dB) for OOK at 1e-3.
	RequiredSNR float64
}

// DefaultChain returns the paper's chain: one-stage pump, INA2331,
// TS881-class comparator.
func DefaultChain() Chain {
	amp := DefaultInstAmp
	return Chain{
		SAW:                 DefaultSAW,
		PumpBoost:           2,
		PumpOutputImpedance: 10e3,
		HighPass:            HighPass{Cutoff: 3 * units.Kilohertz},
		Amp:                 &amp,
		Comparator:          DefaultComparator,
		RequiredSNR:         4,
	}
}

// Sensitivity returns the minimum detectable RF signal power for an OOK
// signal whose envelope bandwidth matches the bit rate: the larger of the
// comparator-limited and noise-limited floors.
func (c Chain) Sensitivity(rate units.BitRate) units.DBm {
	if rate <= 0 {
		panic("analog: non-positive bit rate")
	}
	if c.PumpBoost <= 0 || c.RequiredSNR <= 0 {
		panic("analog: chain not configured")
	}
	f := units.Hertz(float64(rate)) // envelope fundamental ≈ bit rate
	gain := 1.0
	if c.Amp != nil {
		gain = c.Amp.EffectiveGain(f, c.PumpOutputImpedance)
	}
	hp := c.HighPass.Gain(f)

	// Comparator-limited: swing at the comparator must reach threshold.
	vinComp := c.Comparator.Threshold / (c.PumpBoost * gain * hp)

	// Noise-limited: input-referred amp noise over the signal bandwidth
	// must be exceeded by RequiredSNR at the amp input.
	vinNoise := 0.0
	if c.Amp != nil {
		vinNoise = c.RequiredSNR * c.Amp.NoiseVoltage(f) / (c.PumpBoost * hp)
	}

	vin := math.Max(vinComp, vinNoise)
	p := PowerForAmplitude(vin)
	return p.DBm().Add(units.DB(c.SAW.InsertionLoss))
}
