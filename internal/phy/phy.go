// Package phy models Braidio's physical layer: the three operating modes
// (named, as in §4, after where the carrier lives), their link budgets,
// bit error rates, achievable bitrates at a given distance, per-bit
// energy costs, and the operating regimes of Fig. 8.
//
// The calibration constants binding this model to the paper's measured
// prototype are collected in calibration.go.
package phy

import (
	"fmt"
	"math"
	"slices"

	"braidio/internal/frame"
	"braidio/internal/modem"
	"braidio/internal/rf"
	"braidio/internal/units"
)

// Mode is one of Braidio's three operating modes, named after the
// receiver state (§4): in Active both ends run their carrier; in Passive
// only the transmitter does (the receiver uses the envelope detector); in
// Backscatter only the receiver does (the transmitter is a tag).
type Mode int

// The three modes.
const (
	ModeActive Mode = iota
	ModePassive
	ModeBackscatter
)

// Modes lists all modes in canonical order (the order of the p_i in
// Eq. 1).
var Modes = [3]Mode{ModeActive, ModePassive, ModeBackscatter}

// NumModes is the number of operating modes — the stride of the
// LinkColumns buffer and of per-mode accounting arrays indexed by Mode.
const NumModes = len(Modes)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeActive:
		return "active"
	case ModePassive:
		return "passive"
	case ModeBackscatter:
		return "backscatter"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Scheme returns the detection scheme the mode uses at its typical
// operating point; SchemeAt refines it per rate.
func (m Mode) Scheme() modem.Scheme {
	return SchemeAt(m, units.Rate100k)
}

// SchemeAt returns the detection scheme for a mode at a rate. The active
// link is a coherent radio; the envelope-detected links are non-coherent
// OOK — except the 1 Mbps backscatter uplink, where the tag's modulator
// runs an FSK clock ("a few tens of kHz for ASK modulation, and around
// several MHz for FSK modulation", §2.2).
func SchemeAt(m Mode, r units.BitRate) modem.Scheme {
	switch {
	case m == ModeActive:
		return modem.PSKCoherent
	case m == ModeBackscatter && r >= units.Rate1M:
		return modem.FSKNonCoherent
	default:
		return modem.OOKNonCoherent
	}
}

// Rates lists the calibrated operating bitrates, fastest first.
var Rates = [3]units.BitRate{units.Rate1M, units.Rate100k, units.Rate10k}

// TXPower returns the data transmitter's draw in a mode at a rate.
func TXPower(m Mode, r units.BitRate) units.Watt {
	switch m {
	case ModeActive:
		return ActiveTXPower
	case ModePassive:
		return PassiveTXPower
	case ModeBackscatter:
		return BackscatterTXPower(r)
	default:
		panic(fmt.Sprintf("phy: unknown mode %d", int(m)))
	}
}

// RXPower returns the data receiver's draw in a mode at a rate.
func RXPower(m Mode, r units.BitRate) units.Watt {
	switch m {
	case ModeActive:
		return ActiveRXPower
	case ModePassive:
		return PassiveRXPower(r)
	case ModeBackscatter:
		return BackscatterRXPower
	default:
		panic(fmt.Sprintf("phy: unknown mode %d", int(m)))
	}
}

// Sensitivity returns the minimum received power for the mode/rate to
// meet RangeBERTarget.
func Sensitivity(m Mode, r units.BitRate) units.DBm {
	switch m {
	case ModeActive:
		return ActiveSensitivity
	case ModePassive:
		return PassiveSensitivity(r)
	case ModeBackscatter:
		return BackscatterSensitivity(r)
	default:
		panic(fmt.Sprintf("phy: unknown mode %d", int(m)))
	}
}

// Model is the link-level channel model between two Braidio boards.
type Model struct {
	// OneWay is the budget of the active and passive links.
	OneWay rf.Link
	// RoundTrip is the monostatic backscatter budget.
	RoundTrip rf.BackscatterLink
	// PayloadLen sets the framing used for goodput and per-bit costs.
	PayloadLen int
	// FadeMargin derates every link, modeling multipath beyond the
	// paper's cleared room. Zero for the paper's setting.
	FadeMargin units.DB
	// Retransmit, when true, derates goodput by the frame error rate
	// (ARQ semantics: every corrupted frame is resent whole). The
	// paper's §6.3 simulator counts link throughput at the operating
	// BER without ARQ accounting, so ideal accounting is the default;
	// the packet-level MAC and the ARQ ablation bench set this.
	Retransmit bool
	// Interference is the total co-channel interference power arriving
	// at the data receiver, in linear milliwatts — the aggregate of
	// other hubs' concurrent carriers as computed by the network
	// scheduler (internal/net). Zero (the default) is the isolated-pair
	// setting and leaves every SNR bit-identical to the
	// interference-free model (rf.SINR gates on it rather than
	// recomputing). Kept as a plain float so Model stays comparable —
	// the process-global link cache keys on the Model value.
	Interference float64
}

// NewModel returns the calibrated model of two Braidio boards in free
// space (the paper's cleared 6 m × 6 m room).
func NewModel() *Model {
	oneWay := rf.NewLink()
	oneWay.ExtraLoss = FrontEndLoss
	rt := rf.NewBackscatterLink()
	rt.ReflectionLoss = BackscatterReflectionLoss
	rt.Reverse.ExtraLoss = FrontEndLoss
	return &Model{OneWay: oneWay, RoundTrip: rt, PayloadLen: frame.DefaultPayload}
}

// ReceivedPower returns the signal power arriving at the data receiver in
// the given mode at distance d. A distance that is not positive (or NaN)
// receives no power, −Inf dBm: its SNR is −Inf, its BER 0.5, and no rate
// meets RangeBERTarget there.
func (m *Model) ReceivedPower(mode Mode, d units.Meter) units.DBm {
	switch mode {
	case ModeActive, ModePassive:
		return m.oneWayPower(d)
	case ModeBackscatter:
		return m.backscatterPower(d)
	default:
		panic(fmt.Sprintf("phy: unknown mode %d", int(mode)))
	}
}

// noPower is the power received at a distance that is not positive.
var noPower = units.DBm(math.Inf(-1))

// oneWayPower is the active and passive links' received power at d.
func (m *Model) oneWayPower(d units.Meter) units.DBm {
	if !(d > 0) {
		return noPower
	}
	return m.OneWay.Received(CarrierPower, d).Sub(m.FadeMargin)
}

// backscatterPower is the monostatic round trip's received power at d.
func (m *Model) backscatterPower(d units.Meter) units.DBm {
	if !(d > 0) {
		return noPower
	}
	return m.RoundTrip.ReceivedMonostatic(CarrierPower, d).Sub(m.FadeMargin)
}

// snrTargets holds, per scheme, the SNR (dB) that meets RangeBERTarget:
// modem.SNRForBER's own float64s (a bisection for the coherent schemes),
// solved once at package init.
var snrTargets = func() (t [modem.QAM16Coherent + 1]units.DB) {
	for s := range t {
		t[s] = units.DBFromRatio(modem.SNRForBER(modem.Scheme(s), RangeBERTarget))
	}
	return t
}()

// SNRTarget returns the SNR (dB) a mode's scheme needs at a rate to hit
// RangeBERTarget; the effective noise floor of a mode/rate sits that far
// below its sensitivity.
func SNRTarget(mode Mode, r units.BitRate) units.DB {
	return snrTargets[SchemeAt(mode, r)]
}

// sinr is the effective per-bit SINR (dB) of a mode/rate given the
// received signal power rx.
func (m *Model) sinr(mode Mode, r units.BitRate, rx units.DBm) units.DB {
	return rf.SINR(rx, Sensitivity(mode, r).Sub(SNRTarget(mode, r)), m.Interference)
}

// SNR returns the effective per-bit SINR (dB) for a mode/rate at distance
// d: received power over the mode's calibrated effective noise floor,
// raised by the model's co-channel Interference when one is set. With
// zero Interference this is the plain SNR, bit-identical to the
// pre-interference model. It is −Inf at a distance that is not positive.
func (m *Model) SNR(mode Mode, r units.BitRate, d units.Meter) units.DB {
	return m.sinr(mode, r, m.ReceivedPower(mode, d))
}

// BER returns the analytic bit error rate for a mode/rate at distance d.
func (m *Model) BER(mode Mode, r units.BitRate, d units.Meter) float64 {
	return modem.BERFromDB(SchemeAt(mode, r), m.SNR(mode, r, d))
}

// Available reports whether a mode supports at least its slowest bitrate
// at distance d.
func (m *Model) Available(mode Mode, d units.Meter) bool {
	_, ok := m.BestRate(mode, d)
	return ok
}

// BestRate returns the fastest bitrate whose BER at distance d meets
// RangeBERTarget, and whether any does. The active link only runs at
// 1 Mbps.
func (m *Model) BestRate(mode Mode, d units.Meter) (units.BitRate, bool) {
	r, _, ok := m.fastestRate(mode, m.ReceivedPower(mode, d))
	return r, ok
}

// activeRates is the active link's only rate.
var activeRates = [1]units.BitRate{units.Rate1M}

// rateGuard is how far (dB) below its SNR target a rate's SINR must sit
// for fastestRate to refuse the rate without computing its BER. The BER
// at the target is RangeBERTarget to within float rounding, and a step of
// rateGuard moves it by about a millionth of itself, so a SINR that far
// below the target always fails; one nearer, or above, gets the exact BER.
const rateGuard = 1e-6

// fastestRate tries a mode's rates fastest first at received power rx and
// returns the first meeting RangeBERTarget, with its BER. A rate whose
// SINR is more than rateGuard below its SNR target is refused from the
// SINR alone; every other rate's BER is computed exactly, once.
func (m *Model) fastestRate(mode Mode, rx units.DBm) (r units.BitRate, ber float64, ok bool) {
	rates := Rates[:]
	if mode == ModeActive {
		rates = activeRates[:]
	}
	for _, r = range rates {
		sinr := m.sinr(mode, r, rx)
		if sinr < SNRTarget(mode, r)-rateGuard {
			continue
		}
		if ber = modem.BERFromDB(SchemeAt(mode, r), sinr); ber <= RangeBERTarget {
			return r, ber, true
		}
	}
	return 0, 0, false
}

// Range returns the maximum distance at which a mode/rate meets
// RangeBERTarget. Co-channel Interference raises the effective noise
// floor, so it lifts the required received power by the same factor the
// SNR path loses — keeping Range consistent with BestRate under
// interference (zero Interference leaves the sensitivity untouched).
func (m *Model) Range(mode Mode, r units.BitRate) units.Meter {
	rx := func(d units.Meter) units.DBm { return m.ReceivedPower(mode, d) }
	sens := Sensitivity(mode, r)
	if m.Interference > 0 {
		noiseMW := math.Pow(10, float64(sens.Sub(SNRTarget(mode, r)))/10)
		sens = sens.Add(units.DB(10 * math.Log10(1+m.Interference/noiseMW)))
	}
	d, ok := rf.RangeForSensitivity(rx, sens, 0.01, 10000)
	if !ok {
		return 0
	}
	return d
}

// Regime is an operating regime of Fig. 8.
type Regime int

// The regimes: A has all three links, B loses backscatter, C has only the
// active link, and OutOfRange has nothing.
const (
	RegimeA Regime = iota
	RegimeB
	RegimeC
	OutOfRange
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeA:
		return "A (all links)"
	case RegimeB:
		return "B (active+passive)"
	case RegimeC:
		return "C (active only)"
	case OutOfRange:
		return "out of range"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// Regime classifies the distance per Fig. 8. A distance that is not
// positive is OutOfRange.
func (m *Model) Regime(d units.Meter) Regime {
	switch {
	case m.Available(ModeBackscatter, d):
		return RegimeA
	case m.Available(ModePassive, d):
		return RegimeB
	case m.Available(ModeActive, d):
		return RegimeC
	default:
		return OutOfRange
	}
}

// ModeLink characterizes one available mode at a distance: its best rate,
// error rate, delivered goodput, and per-useful-bit energy costs at both
// ends — the (T_i, R_i) of Eq. 1.
type ModeLink struct {
	Mode Mode
	Rate units.BitRate
	BER  float64
	// Good is the delivered payload bitrate, including framing and
	// protocol duty efficiency (and ARQ derating when the model has
	// Retransmit set).
	Good units.BitRate
	// T and R are joules per delivered payload bit at the transmitter
	// and receiver.
	T, R units.JoulesPerBit
}

// goodput computes the delivered payload bitrate for a mode/rate/BER
// under the model's loss accounting. Ideal accounting treats the link as
// binary — full throughput below the range BER target, dead above it —
// matching the paper's simulator; ARQ accounting derates continuously by
// the frame error rate instead.
func (m *Model) goodput(mode Mode, r units.BitRate, ber float64) units.BitRate {
	g := float64(r) * frame.Efficiency(m.PayloadLen) * ProtocolEfficiency(mode)
	if m.Retransmit {
		g *= 1 - frame.FrameErrorRate(ber, m.PayloadLen)
	} else if ber > RangeBERTarget {
		return 0
	}
	return units.BitRate(g)
}

// link completes a mode/rate/BER into a ModeLink: goodput and the
// per-useful-bit costs at both ends (+Inf on a link that delivers
// nothing).
func (m *Model) link(mode Mode, r units.BitRate, ber float64) ModeLink {
	l := ModeLink{Mode: mode, Rate: r, BER: ber, Good: m.goodput(mode, r, ber)}
	if l.Good <= 0 {
		l.T, l.R = units.JoulesPerBit(math.Inf(1)), units.JoulesPerBit(math.Inf(1))
	} else {
		l.T, l.R = units.PerBit(TXPower(mode, r), l.Good), units.PerBit(RXPower(mode, r), l.Good)
	}
	return l
}

// Characterize returns the available modes at distance d with their best
// rates and per-bit costs, in canonical mode order. Unavailable modes are
// omitted, and a distance that is not positive has none: the result is
// empty, which callers report as out of range.
func (m *Model) Characterize(d units.Meter) []ModeLink {
	return m.CharacterizeInto(nil, d)
}

// CharacterizeInto is Characterize appending into caller-owned storage:
// dst is truncated and refilled, so a caller reusing one buffer across
// distances characterizes without heap allocation once the buffer has
// grown to NumModes capacity.
//
// Active and Passive share the one-way received power, computed once.
func (m *Model) CharacterizeInto(dst []ModeLink, d units.Meter) []ModeLink {
	dst = dst[:0]
	oneWay := m.oneWayPower(d)
	for _, mode := range Modes {
		rx := oneWay
		if mode == ModeBackscatter {
			rx = m.backscatterPower(d)
		}
		if r, ber, ok := m.fastestRate(mode, rx); ok {
			dst = append(dst, m.link(mode, r, ber))
		}
	}
	return dst
}

// LinkColumns is a batch of link characterizations in one flat
// stride-NumModes buffer: Row(k) is member k's links, in canonical mode
// order with unavailable modes omitted. A row filled by
// CharacterizeColumns holds the links exactly as Characterize returns
// them; a row filled by RebuildColumns holds the same links with a NaN
// BER. Batch kernels walk the buffer linearly with no per-member slice or
// allocation.
type LinkColumns struct {
	// Len[k] is the number of available modes for member k.
	Len   []int32
	links []ModeLink
}

// Reset sizes the buffer for n members, reusing the underlying arrays
// when capacity allows (one amortized allocation per growth, zero in
// steady state).
func (c *LinkColumns) Reset(n int) {
	if cap(c.Len) < n {
		c.Len = make([]int32, n)
		c.links = make([]ModeLink, n*NumModes)
	}
	c.Len = c.Len[:n]
	c.links = c.links[:n*NumModes]
}

// Row returns member k's live links. The row aliases the buffer and is
// capacity-clamped, so an append can never spill into member k+1.
func (c *LinkColumns) Row(k int) []ModeLink {
	lo, hi := k*NumModes, k*NumModes+int(c.Len[k])
	return c.links[lo:hi:hi]
}

// CharacterizeColumns fills member k's row of cols with
// CharacterizeInto at distance d. Each call touches only row k, so a
// batch characterization can stripe calls across a worker pool with
// index-owned writes.
func (m *Model) CharacterizeColumns(cols *LinkColumns, k int, d units.Meter) {
	lo := k * NumModes
	cols.Len[k] = int32(len(m.CharacterizeInto(cols.links[lo:lo:lo+NumModes], d)))
}

// RateCode packs member k's rate choices into one byte, two bits per
// mode (bits 2·Mode and 2·Mode+1): 0 when the mode is absent from the
// row, i+1 when it runs at Rates[i]. Every rate a row holds is one of
// Rates, so only an empty row encodes to 0. RebuildColumns inverts it.
func (c *LinkColumns) RateCode(k int) uint8 {
	var code uint8
	for _, l := range c.Row(k) {
		code |= uint8(slices.Index(Rates[:], l.Rate)+1) << (2 * l.Mode)
	}
	return code
}

// RebuildColumns fills member k's row of cols from a RateCode: each coded
// mode at its coded rate, with its goodput and per-bit costs, and a NaN
// BER. Without Retransmit a link's Good, T and R follow from its mode and
// rate alone, so the row rebuilt from the code of a characterization at
// distance d equals CharacterizeColumns at d in every field but BER. With
// Retransmit they depend on the BER; RebuildColumns then leaves the row
// as it was and returns false, and the caller characterizes. Like
// CharacterizeColumns, it touches only row k.
func (m *Model) RebuildColumns(cols *LinkColumns, k int, code uint8) bool {
	if m.Retransmit {
		return false
	}
	lo := k * NumModes
	row := cols.links[lo : lo : lo+NumModes]
	for _, mode := range Modes {
		if i := code >> (2 * mode) & 3; i > 0 {
			row = append(row, m.link(mode, Rates[i-1], math.NaN()))
		}
	}
	cols.Len[k] = int32(len(row))
	return true
}

// SharedCarrierLink characterizes the backscatter mode when the carrier
// comes from a *different* hub's active transmitter: the donor's carrier
// travels dForward to the tag, is modulated, and the sidebands travel
// dReverse to the data receiver — the bistatic budget of
// rf.BackscatterLink.Received instead of the monostatic 40·log10(d)
// round trip. The receiving hub no longer generates the carrier, only
// envelope-detects, so its per-bit cost drops from the 129 mW
// backscatter reader to the passive envelope chain at the link's rate —
// the carrier bill moves off this braid entirely, which is the whole
// point of sharing. The model's FadeMargin and Interference apply as in
// SNR. Returns ok=false when no rate meets RangeBERTarget over the
// bistatic path, as at a hop that is not positive, which receives no
// power.
func (m *Model) SharedCarrierLink(dForward, dReverse units.Meter) (ModeLink, bool) {
	rx := noPower
	if dForward > 0 && dReverse > 0 {
		rx = m.RoundTrip.Received(CarrierPower, dForward, dReverse).Sub(m.FadeMargin)
	}
	r, ber, ok := m.fastestRate(ModeBackscatter, rx)
	if !ok {
		return ModeLink{}, false
	}
	l := m.link(ModeBackscatter, r, ber)
	if l.Good <= 0 {
		return ModeLink{}, false
	}
	l.R = units.PerBit(PassiveRXPower(r), l.Good)
	return l, true
}

// LinkAt characterizes one specific mode/rate at a distance regardless of
// whether it meets the range target (used for BER sweeps). At a distance
// that is not positive the BER is 0.5, the goodput zero and the per-bit
// costs +Inf.
func (m *Model) LinkAt(mode Mode, r units.BitRate, d units.Meter) ModeLink {
	return m.link(mode, r, m.BER(mode, r, d))
}

// CommercialReaderBER returns the AS3993 baseline's BER at 100 kbps and
// distance d, for the Fig. 12 comparison. The reader uses its own budget:
// 17 dBm carrier, +2 dBi reader antennas, no SAW/switch penalty.
func CommercialReaderBER(d units.Meter) float64 {
	link := rf.BackscatterLink{
		Forward:        rf.Link{Frequency: rf.DefaultFrequency, TXAntenna: rf.ReaderAntenna, RXAntenna: rf.ChipAntenna},
		Reverse:        rf.Link{Frequency: rf.DefaultFrequency, TXAntenna: rf.ChipAntenna, RXAntenna: rf.ReaderAntenna},
		ReflectionLoss: BackscatterReflectionLoss,
	}
	rx := link.ReceivedMonostatic(ReaderCarrierPower, d)
	noise := ReaderSensitivity.Sub(units.DBFromRatio(modem.SNRForBER(modem.OOKNonCoherent, RangeBERTarget)))
	return modem.BERFromDB(modem.OOKNonCoherent, rf.SNR(rx, noise))
}
