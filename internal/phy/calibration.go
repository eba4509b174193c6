// Calibration constants for the Braidio PHY.
//
// Every absolute constant that ties the simulator to the paper's measured
// prototype lives in this file, with the published observable it was
// derived from. The derivation stance (DESIGN.md §2): power draws and
// power ratios come straight from the paper's text and Figs. 9/14;
// receiver sensitivities are back-computed from the published operating
// ranges (Figs. 12/13) through the free-space link budgets of
// internal/rf; everything downstream is derived, not fitted.
package phy

import (
	"braidio/internal/units"
)

// CarrierPower is the SI4432 carrier emitter's output: 13 dBm (125 mW
// draw at 13 dBm per Table 4).
const CarrierPower units.DBm = 13

// ReaderCarrierPower is the AS3993 baseline's output per Table 2
// (640 mW draw at 17 dBm).
const ReaderCarrierPower units.DBm = 17

// Power draw of each mode's endpoint electronics, per §6 and Fig. 9/14.
//
// The ratios of Fig. 9 at 0.3 m pin these numbers:
//
//	active      TX:RX efficiency 0.9524:1  ⇒ P_rx/P_tx = 0.9524
//	passive     1:2546 at 1 Mbps           ⇒ P_rx = P_tx/2546
//	backscatter 3546:1 at 1 Mbps           ⇒ P_tx = P_rx/3546
//
// and Fig. 14 extends the passive ratios to 1:4000 (100 kbps) and 1:5600
// (10 kbps), and backscatter to 5571:1 and 7800:1. With the backscatter
// receiver at 129 mW (total board draw quoted in §6.1), the 10 kbps tag
// works out to 16.5 µW — the "16 µW" floor in the abstract.
const (
	// ActiveTXPower and ActiveRXPower model the SPBT2632-class active
	// transceiver, which also serves as the Bluetooth-equivalent
	// endpoint in the evaluation. Their sum exceeding the
	// single-carrier modes' total is what makes line BC of Fig. 9 the
	// efficient frontier, and their 100:105 ratio is exactly the
	// 0.9524:1 annotation on point A.
	ActiveTXPower units.Watt = 105e-3
	ActiveRXPower units.Watt = 100e-3

	// PassiveTXPower is the carrier-plus-data transmitter feeding a
	// passive receiver (SI4432 at 13 dBm plus controller).
	PassiveTXPower units.Watt = 127.3e-3

	// BackscatterRXPower is the full backscatter-mode receiver: carrier
	// emitter, envelope chain, amplifier, comparator, controller — the
	// 129 mW Braidio reader of Fig. 12.
	BackscatterRXPower units.Watt = 129e-3
)

// PassiveRXPower returns the passive envelope receiver's draw at each
// bitrate (comparator and amplifier bandwidth scale with bitrate).
func PassiveRXPower(r units.BitRate) units.Watt {
	switch r {
	case units.Rate1M:
		return PassiveTXPower / 2546
	case units.Rate100k:
		return PassiveTXPower / 4000
	case units.Rate10k:
		return PassiveTXPower / 5600
	default:
		panic("phy: no calibrated passive RX power for rate " + r.String())
	}
}

// BackscatterTXPower returns the tag-side transmitter draw at each
// bitrate (the modulation clock dominates, so slower is cheaper).
func BackscatterTXPower(r units.BitRate) units.Watt {
	switch r {
	case units.Rate1M:
		return BackscatterRXPower / 3546
	case units.Rate100k:
		return BackscatterRXPower / 5571
	case units.Rate10k:
		return BackscatterRXPower / 7800
	default:
		panic("phy: no calibrated backscatter TX power for rate " + r.String())
	}
}

// Receiver sensitivities, back-computed from the published ranges through
// the free-space budgets (chip antennas at −2 dBi, 6 dB backscatter
// reflection loss, 2.35 dB SAW + switch insertion loss):
//
//	backscatter ranges 0.9 / 1.8 / 2.4 m  (Fig. 13) ⇒ −64.9 / −76.9 / −81.9 dBm
//	passive     ranges 3.9 / 4.2 / 5.1 m  (Fig. 13) ⇒ −36.8 / −37.5 / −39.2 dBm
//
// The backscatter sensitivities agree with the first-principles analog
// chain (internal/analog.DefaultChain) within a few dB — validated by a
// test. The passive-mode values carry the prototype's large
// implementation margin (shallow ASK modulation depth on the active
// transmitter plus detector inefficiency), which we take as measured.
func BackscatterSensitivity(r units.BitRate) units.DBm {
	switch r {
	case units.Rate1M:
		return -64.86
	case units.Rate100k:
		return -76.90
	case units.Rate10k:
		return -81.90
	default:
		panic("phy: no calibrated backscatter sensitivity for rate " + r.String())
	}
}

// PassiveSensitivity returns the passive receiver's effective minimum
// input power per bitrate.
func PassiveSensitivity(r units.BitRate) units.DBm {
	switch r {
	case units.Rate1M:
		return -36.84
	case units.Rate100k:
		return -37.48
	case units.Rate10k:
		return -39.17
	default:
		panic("phy: no calibrated passive sensitivity for rate " + r.String())
	}
}

// ActiveSensitivity is the active radio's sensitivity at 1 Mbps — BLE
// class, around −90 dBm; the paper only says the active link works "well
// beyond 6 meters".
const ActiveSensitivity units.DBm = -90

// ReaderSensitivity is the AS3993 baseline's effective sensitivity at
// 100 kbps, back-computed from its 3 m range at 17 dBm with its larger
// (+2 dBi) reader antennas.
const ReaderSensitivity units.DBm = -71.42

// ReaderPowerDraw is the AS3993 board's draw (Table 2 / §6.1).
const ReaderPowerDraw units.Watt = 640e-3

// RangeBERTarget is the bit error rate defining "operational range"
// throughout the evaluation ("for BER < 0.01").
const RangeBERTarget = 0.01

// Insertion losses on the Braidio receive path: SAW filter (2 dB) plus
// antenna switch (0.35 dB).
const FrontEndLoss units.DB = 2.35

// BackscatterReflectionLoss is the tag's modulation loss.
const BackscatterReflectionLoss units.DB = 6

// PassiveLinkEfficiency is the protocol-level efficiency of the passive
// receiver link on top of framing: the transmitter keeps its carrier on
// through the extended preambles the envelope detector needs to settle
// and through inter-frame gaps, burning carrier power that moves no
// bits. Calibrated so that the passive and backscatter corner gains of
// Fig. 15 reproduce the paper's 299× vs 397× asymmetry (the active and
// backscatter links pay no such duty overhead: the tag's modulator and
// the active radio idle cheaply between frames).
const PassiveLinkEfficiency = 0.75

// ProtocolEfficiency returns the mode's duty efficiency multiplier on
// top of frame-level efficiency.
func ProtocolEfficiency(m Mode) float64 {
	if m == ModePassive {
		return PassiveLinkEfficiency
	}
	return 1
}

// Switching overheads per transition, from Table 5 (converted from Wh to
// joules), indexed by Mode. The backscatter TX number is the paper's
// worst case — "we use the worse scenario, i.e. the link speed is only
// 10kbps" — because the mode-entry handshake runs at link speed;
// SwitchCost scales it to the actual rate.
var SwitchOverhead = [NumModes]struct{ TX, RX units.Joule }{
	ModeActive:      {TX: 3.78e-6, RX: 3.636e-6},
	ModePassive:     {TX: 6.192e-6, RX: 1.584e-8},
	ModeBackscatter: {TX: 3.0888e-4, RX: 3.96e-8},
}

// SwitchCost returns the per-transition energies for entering a mode at a
// given link rate. The backscatter transmitter-side overhead is dominated
// by the handshake airtime, so it scales inversely with the rate from the
// Table 5 worst case at 10 kbps; the other entries are rate-independent
// electronics settling costs.
func SwitchCost(m Mode, r units.BitRate) (tx, rx units.Joule) {
	oh := SwitchOverhead[m]
	tx, rx = oh.TX, oh.RX
	if m == ModeBackscatter && r > units.Rate10k {
		tx = units.Joule(float64(tx) * float64(units.Rate10k) / float64(r))
	}
	return tx, rx
}
