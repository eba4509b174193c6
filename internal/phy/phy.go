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
// structure-of-arrays link columns and of per-mode accounting arrays
// indexed by Mode.
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
// the given mode at distance d.
func (m *Model) ReceivedPower(mode Mode, d units.Meter) units.DBm {
	var rx units.DBm
	switch mode {
	case ModeActive, ModePassive:
		rx = m.OneWay.Received(CarrierPower, d)
	case ModeBackscatter:
		rx = m.RoundTrip.ReceivedMonostatic(CarrierPower, d)
	default:
		panic(fmt.Sprintf("phy: unknown mode %d", int(mode)))
	}
	return rx.Sub(m.FadeMargin)
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
// pre-interference model.
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
	r, _, _, ok := m.bestLink(mode, d)
	return r, ok
}

// activeRates is the active link's only rate.
var activeRates = [1]units.BitRate{units.Rate1M}

// bestLink is the per-mode step every characterization shares: it
// computes the received power at d once, then each candidate rate's SINR
// and BER once, fastest first, and returns the first rate meeting
// RangeBERTarget with that SNR and BER.
func (m *Model) bestLink(mode Mode, d units.Meter) (r units.BitRate, snr units.DB, ber float64, ok bool) {
	rates := Rates[:]
	if mode == ModeActive {
		rates = activeRates[:]
	}
	rx := m.ReceivedPower(mode, d)
	for _, r = range rates {
		snr = m.sinr(mode, r, rx)
		if ber = modem.BERFromDB(SchemeAt(mode, r), snr); ber <= RangeBERTarget {
			return r, snr, ber, true
		}
	}
	return 0, 0, 0, false
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

// Regime classifies the distance per Fig. 8.
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
// omitted.
func (m *Model) Characterize(d units.Meter) []ModeLink {
	return m.CharacterizeInto(nil, d)
}

// CharacterizeInto is Characterize appending into caller-owned storage:
// dst is truncated and refilled, so a caller reusing one buffer across
// distances characterizes without heap allocation once the buffer has
// grown to NumModes capacity.
func (m *Model) CharacterizeInto(dst []ModeLink, d units.Meter) []ModeLink {
	dst = dst[:0]
	for _, mode := range Modes {
		if r, _, ber, ok := m.bestLink(mode, d); ok {
			dst = append(dst, m.link(mode, r, ber))
		}
	}
	return dst
}

// LinkColumns is the structure-of-arrays projection of a batch of link
// characterizations: one row of NumModes-stride columns per member, flat
// float64 (and small scalar) arrays instead of per-member []ModeLink
// slices. Batch kernels iterate columns linearly — no per-member pointer
// chasing, no per-member allocation — while Len records how many of the
// row's leading slots are live (modes are in canonical order, unavailable
// modes omitted exactly as Characterize omits them).
type LinkColumns struct {
	// N is the number of members the columns currently describe.
	N int
	// Len[k] is the number of available modes for member k; member k's
	// values live at [k*NumModes, k*NumModes+Len[k]).
	Len []int32
	// Mode and Rate identify each link slot.
	Mode []Mode
	Rate []units.BitRate
	// SNR and BER are the link-quality columns (SNR in dB at the slot's
	// operating rate).
	SNR []units.DB
	BER []float64
	// Good is the delivered payload bitrate column.
	Good []units.BitRate
	// T and R are the per-useful-bit energy columns — the (T_i, R_i) of
	// Eq. 1 — at the transmitter and receiver.
	T, R []units.JoulesPerBit
}

// Reset sizes the columns for n members, reusing the underlying arrays
// when capacity allows (one amortized allocation per growth, zero in
// steady state).
func (c *LinkColumns) Reset(n int) {
	c.N = n
	flat := n * NumModes
	if cap(c.Len) < n {
		c.Len = make([]int32, n)
		c.Mode = make([]Mode, flat)
		c.Rate = make([]units.BitRate, flat)
		c.SNR = make([]units.DB, flat)
		c.BER = make([]float64, flat)
		c.Good = make([]units.BitRate, flat)
		c.T = make([]units.JoulesPerBit, flat)
		c.R = make([]units.JoulesPerBit, flat)
	}
	c.Len = c.Len[:n]
	c.Mode = c.Mode[:flat]
	c.Rate = c.Rate[:flat]
	c.SNR = c.SNR[:flat]
	c.BER = c.BER[:flat]
	c.Good = c.Good[:flat]
	c.T = c.T[:flat]
	c.R = c.R[:flat]
}

// Row copies member k's live slots into dst (len ≥ NumModes) as
// ModeLinks and returns the filled prefix — the bridge back from
// columnar storage to the slice-shaped APIs.
func (c *LinkColumns) Row(k int, dst []ModeLink) []ModeLink {
	base := k * NumModes
	n := int(c.Len[k])
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = ModeLink{
			Mode: c.Mode[base+i],
			Rate: c.Rate[base+i],
			BER:  c.BER[base+i],
			Good: c.Good[base+i],
			T:    c.T[base+i],
			R:    c.R[base+i],
		}
	}
	return dst
}

// CharacterizeColumns fills member k's row of cols from this model at
// distance d: the same per-mode computations as Characterize, plus the
// SNR column, written straight into the flat arrays. Each call touches
// only row k, so a batch characterization can stripe calls across a
// worker pool with index-owned writes.
func (m *Model) CharacterizeColumns(cols *LinkColumns, k int, d units.Meter) {
	base := k * NumModes
	n := 0
	for _, mode := range Modes {
		r, snr, ber, ok := m.bestLink(mode, d)
		if !ok {
			continue
		}
		l := m.link(mode, r, ber)
		i := base + n
		cols.Mode[i] = mode
		cols.Rate[i] = r
		cols.SNR[i] = snr
		cols.BER[i] = ber
		cols.Good[i] = l.Good
		cols.T[i] = l.T
		cols.R[i] = l.R
		n++
	}
	cols.Len[k] = int32(n)
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
// bistatic path.
func (m *Model) SharedCarrierLink(dForward, dReverse units.Meter) (ModeLink, bool) {
	rx := m.RoundTrip.Received(CarrierPower, dForward, dReverse).Sub(m.FadeMargin)
	for _, r := range Rates {
		ber := modem.BERFromDB(SchemeAt(ModeBackscatter, r), m.sinr(ModeBackscatter, r, rx))
		if ber > RangeBERTarget {
			continue
		}
		good := m.goodput(ModeBackscatter, r, ber)
		if good <= 0 {
			continue
		}
		return ModeLink{
			Mode: ModeBackscatter,
			Rate: r,
			BER:  ber,
			Good: good,
			T:    units.PerBit(BackscatterTXPower(r), good),
			R:    units.PerBit(PassiveRXPower(r), good),
		}, true
	}
	return ModeLink{}, false
}

// LinkAt characterizes one specific mode/rate at a distance regardless of
// whether it meets the range target (used for BER sweeps).
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
