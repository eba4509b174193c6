// Package chargepump models the Dickson RF charge pump at the heart of
// Braidio's passive receiver (§3.2, Fig. 3): a diode-capacitor ladder
// that boosts the envelope of a weak RF input into a DC voltage while
// presenting the large static carrier self-interference as a DC offset
// that downstream high-pass filtering removes.
//
// Two views are provided, which the tests cross-check against each other:
//
//   - Transient: a netlist built on internal/circuit and integrated in the
//     time domain, reproducing the TINA simulation of Fig. 3(b).
//   - Analytic: the classic Dickson steady-state model — output voltage
//     2N·(Va − Vd) for N stages of a doubler ladder, with an output
//     impedance that grows with stage count (the reason the paper's
//     instrumentation amplifier must be high-impedance).
package chargepump

import (
	"fmt"
	"math"

	"braidio/internal/circuit"
)

// Pump describes a Dickson charge-pump configuration.
type Pump struct {
	// Stages is the number of voltage-doubling stages N (≥1). Fig. 3
	// shows a single stage (two diodes, two capacitors).
	Stages int
	// StageCapacitance is the pump/storage capacitance per stage, in
	// farads. The paper notes the Moo/WISP front end's Cs and Cp were
	// reduced to improve bitrate: smaller capacitors settle faster but
	// ripple more.
	StageCapacitance float64
	// DiodeDrop is the effective forward drop of each diode at the
	// operating current, in volts. RF Schottky detector diodes sit
	// around 0.15 V.
	DiodeDrop float64
	// LoadResistance is the DC load on the output, in ohms. The INA2331
	// instrumentation amplifier presents an essentially open circuit
	// (>10 GΩ); use math.Inf(1) or a large value for that.
	LoadResistance float64
}

// Default returns the single-stage pump of Fig. 3 with detector-grade
// components and a light load.
func Default() Pump {
	return Pump{
		Stages:           1,
		StageCapacitance: 100e-12,
		DiodeDrop:        0.15,
		LoadResistance:   1e8,
	}
}

// validate panics on nonsensical configurations.
func (p Pump) validate() {
	if p.Stages < 1 {
		panic(fmt.Sprintf("chargepump: %d stages", p.Stages))
	}
	if p.StageCapacitance <= 0 {
		panic("chargepump: non-positive capacitance")
	}
	if p.DiodeDrop < 0 {
		panic("chargepump: negative diode drop")
	}
}

// OutputDC returns the analytic open-circuit DC output for a sine input
// of the given amplitude: 2N·(Va − Vd), clamped at zero. With ideal
// diodes (Vd = 0) and a 1 V input the single-stage pump produces the 2 V
// of Fig. 3(b).
func (p Pump) OutputDC(amplitude float64) float64 {
	p.validate()
	if amplitude < 0 {
		panic("chargepump: negative amplitude")
	}
	v := 2 * float64(p.Stages) * (amplitude - p.DiodeDrop)
	if v < 0 {
		return 0
	}
	return v
}

// OutputImpedance returns the analytic output impedance N/(f·C) at pump
// frequency f — the reason a loaded pump sags and the paper's amplifier
// must present high impedance and low input capacitance.
func (p Pump) OutputImpedance(freq float64) float64 {
	p.validate()
	if freq <= 0 {
		panic("chargepump: non-positive frequency")
	}
	return float64(p.Stages) / (freq * p.StageCapacitance)
}

// LoadedOutput returns the analytic DC output under the configured
// resistive load: the open-circuit voltage divided between the pump's
// output impedance and the load.
func (p Pump) LoadedOutput(amplitude, freq float64) float64 {
	open := p.OutputDC(amplitude)
	if math.IsInf(p.LoadResistance, 1) || p.LoadResistance <= 0 {
		return open
	}
	zout := p.OutputImpedance(freq)
	return open * p.LoadResistance / (p.LoadResistance + zout)
}

// Transient integrates the pump netlist driven by a sine of the given
// amplitude and frequency for the given number of carrier cycles,
// reproducing Fig. 3(b). It returns the circuit result plus the node
// indices of the input (A), the node between the diodes (B), and the
// output (C) for the paper's three traces — for a multi-stage pump, B is
// the pump node of the first stage.
//
// The diode model in the netlist is an exponential Schottky, so the
// transient output lands a little below the ideal-diode analytic value;
// the tests assert the two agree once the analytic model is given the
// diode's effective drop.
func (p Pump) Transient(amplitude, freq float64, cycles int) (res *circuit.Result, a, b, c int, err error) {
	p.validate()
	if amplitude <= 0 || freq <= 0 || cycles < 1 {
		return nil, 0, 0, 0, fmt.Errorf("chargepump: invalid drive amplitude=%v freq=%v cycles=%d", amplitude, freq, cycles)
	}
	var ckt circuit.Circuit
	a = ckt.Node()
	ckt.Sine(a, 0, amplitude, freq)

	in := a
	b = 0
	for s := 0; s < p.Stages; s++ {
		pumpNode := ckt.Node() // between the diodes
		outNode := ckt.Node()  // stage output (DC rail)
		if s == 0 {
			b = pumpNode
		}
		// Coupling capacitor from the driven side into the pump node.
		ckt.Capacitor(in, pumpNode, p.StageCapacitance)
		// Clamp diode from the previous DC rail (ground for stage 0)
		// into the pump node, and series diode onward to the rail.
		prevRail := 0
		if s > 0 {
			prevRail = c
		}
		ckt.SchottkyDiode(prevRail, pumpNode)
		ckt.SchottkyDiode(pumpNode, outNode)
		// Storage capacitor on the rail.
		ckt.Capacitor(outNode, 0, p.StageCapacitance)
		c = outNode
		in = a // every stage is pumped from the RF input in a Dickson ladder
	}
	if !math.IsInf(p.LoadResistance, 1) && p.LoadResistance > 0 {
		ckt.Resistor(c, 0, p.LoadResistance)
	}

	period := 1 / freq
	dt := period / 200
	res, err = ckt.Transient(dt, float64(cycles)*period)
	return res, a, b, c, err
}

// SettlingTime returns the simulated time for the transient output to
// first reach the given fraction of its final value. It returns false if
// the output never gets there.
func SettlingTime(res *circuit.Result, node int, fraction float64) (float64, bool) {
	if fraction <= 0 || fraction >= 1 {
		panic("chargepump: fraction must be in (0,1)")
	}
	final := res.Final(node)
	target := final * fraction
	for i, v := range res.Voltage(node) {
		if v >= target && final > 0 {
			return res.Time[i], true
		}
	}
	return 0, false
}
