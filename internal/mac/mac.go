// Package mac implements the packet-level braided MAC of §4.2: the
// protocol machinery above the PHY and below the application. A Session
// performs the initial battery exchange over the active radio, probes the
// passive and backscatter links to learn their SNR and best bitrates,
// asks the carrier-offload optimizer for mode fractions, executes the
// braided schedule frame by frame (with loss, retransmission, and
// mode-switch overheads), falls back to the active mode when the current
// mode's observed SNR collapses, and periodically re-computes the
// allocation as batteries drain or the channel changes.
//
// The chunked engine in internal/core answers "how many bits until a
// battery dies" analytically; this package exists to exercise the actual
// protocol dynamics — integration tests drive mobility, battery
// depletion, and injected channel faults (internal/faults) through it.
//
// The fallback path carries hysteresis: a cooldown bounds how often the
// safety net can fire, and consecutive fallbacks impose a jittered
// exponential backoff during which only the active mode is scheduled, so
// a link sitting at its decode margin cannot flap between fallback and
// passive re-entry every few frames. A link that stays down through
// bounded recovery attempts surfaces as core.ErrLinkDead.
package mac

import (
	"errors"
	"fmt"
	"io"
	"math"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/frame"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// ErrExhausted reports a SendFrame on a session whose battery already
// died.
var ErrExhausted = errors.New("mac: session battery exhausted")

// Walk is the mobility source a Session can be driven by: the separation
// between the endpoints as a function of time. It is structurally
// identical to sim.Walk, so any of that package's mobility models plug
// in directly (the interface is redeclared here only to keep the import
// graph acyclic — sim's tests drive mac.Sessions).
type Walk interface {
	// DistanceAt returns the separation at absolute time t ≥ 0.
	DistanceAt(t units.Second) units.Meter
}

// Config parameterizes a Session.
type Config struct {
	// Model is the calibrated PHY.
	Model *phy.Model
	// Distance is the initial separation.
	Distance units.Meter
	// Walk, when non-nil, drives the separation from the session's air
	// time: link quality is re-read from the walk at probe and recompute
	// boundaries, so BER/FER track live mobility instead of the initial
	// Distance. SetDistance still works but the walk re-asserts itself
	// at the next boundary.
	Walk Walk
	// Faults, when non-nil, injects channel impairments (burst loss,
	// jamming, carrier dropout, brownout, estimator corruption) into
	// every frame attempt and probe. Nil — and equally an empty
	// faults.Chain — leaves the channel bit-identical to the fault-free
	// path.
	Faults faults.Injector
	// Seed drives all stochastic elements (losses, SNR estimation
	// noise).
	Seed uint64
	// RecomputeFrames is how often the allocation is re-solved.
	RecomputeFrames int
	// FallbackCooldown is the hysteresis floor: after a fallback the
	// safety net will not fire again for this many frames (suppressed
	// triggers are counted in Stats.FallbacksSuppressed). Zero disables
	// the cooldown — the pre-hysteresis behavior.
	FallbackCooldown int
	// FallbackBackoffBase is the re-entry backoff after a *repeated*
	// fallback, measured in recompute periods: the second consecutive
	// fallback keeps the schedule active-only for Base periods, the
	// third for 2×Base, doubling up to eight periods, with up to +50%
	// deterministic jitter so endpoints don't re-probe in lockstep.
	// Zero disables re-entry backoff.
	FallbackBackoffBase int
	// MaxLinkStrikes bounds consecutive failed recovery attempts (an
	// active-mode frame lost after all retries, or a fallback whose
	// re-probe still finds no usable link) before SendFrame returns
	// core.ErrLinkDead. Any delivered frame resets the count. Zero
	// means a single strike is fatal.
	MaxLinkStrikes int
	// Trace, when non-nil, receives one CSV row per data frame:
	// frame,mode,rate,attempts,delivered,txJ,rxJ,snrEst. A header row is
	// written first. Trace output is for offline analysis of a
	// session's braiding behaviour.
	Trace io.Writer
	// Obs, when non-nil, receives frame/fallback/backoff counters and
	// energy totals. Nil falls back to the process default recorder
	// (obs.Active, resolved once at NewSession); attaching a recorder
	// never changes session behaviour.
	Obs *obs.Recorder
}

// DefaultConfig returns the configuration used by the integration tests.
func DefaultConfig(m *phy.Model, d units.Meter, seed uint64) Config {
	return Config{
		Model:               m,
		Distance:            d,
		Seed:                seed,
		RecomputeFrames:     256,
		FallbackCooldown:    16,
		FallbackBackoffBase: 1,
		MaxLinkStrikes:      12,
	}
}

// fallbackSNRMargin: when the EWMA SNR of the current mode drops this
// far below its decode requirement, the session falls back to the
// active mode and re-probes (§4.2's safety net).
const fallbackSNRMargin units.DB = 3

// fallbackBackoffMax caps the re-entry backoff, in recompute periods.
const fallbackBackoffMax = 8

// snrNoise is the standard deviation (dB) of per-frame SNR estimates.
const snrNoise = 1.0

// maxRetries bounds retransmissions per frame before the frame is
// counted lost and the link declared degraded.
const maxRetries = 8

// Stats counts session events.
type Stats struct {
	// FramesDelivered and FramesLost count data frames.
	FramesDelivered, FramesLost int
	// Retransmissions counts extra transmission attempts.
	Retransmissions int
	// PayloadBits is the delivered payload volume.
	PayloadBits float64
	// Probes counts probe frames sent.
	Probes int
	// Recomputes counts allocation recomputations.
	Recomputes int
	// Fallbacks counts emergency reversions to the active mode.
	Fallbacks int
	// FallbacksSuppressed counts fallback triggers absorbed by the
	// hysteresis cooldown — flaps the safety net declined to chase.
	FallbacksSuppressed int
	// BackoffWaits counts recompute boundaries spent waiting out a
	// re-entry backoff (probing and re-admission deferred).
	BackoffWaits int
	// Outages counts completed loss episodes the session survived: runs
	// of one or more lost frames that ended with a delivery.
	Outages int
	// ModeSwitches counts radio reconfigurations.
	ModeSwitches int
	// ModeFrames attributes delivered frames to modes.
	ModeFrames map[phy.Mode]int
	// AirTime is the cumulative on-air duration.
	AirTime units.Second
}

// carrierLostSNR is the estimator seed for a probe that found no carrier
// at all: far below any decode requirement, so the mode is not offered
// to the optimizer until a later probe hears it again.
const carrierLostSNR = -40.0

// Session is a braided MAC session moving data from a transmitter to a
// receiver.
type Session struct {
	cfg          Config
	rng          *rng.Stream
	txBatt       *energy.Battery
	rxBatt       *energy.Battery
	alloc        *core.Allocation
	sched        *core.Scheduler
	current      phy.Mode
	snrEWMA      map[phy.Mode]float64
	dist         units.Meter
	frames       int
	nextSeq      uint16
	stats        Stats
	dead         bool
	traceStarted bool
	rec          *obs.Recorder // resolved obs.Active(cfg.Obs), may be nil

	env faults.Env // scratch, reset per attempt

	// Hysteresis and link-death state.
	lastFallback    int // frame index of the last executed fallback
	flapDeadline    int // a fallback at or before this frame is a flap
	consecFallbacks int // current flap streak
	reentryUntil    int // frame before which only active is scheduled
	strikes         int // consecutive failed recovery attempts
	inOutage        bool
	fatal           error // deferred link-death from maybeFallback
}

// NewSession creates a session, performs the active-mode battery
// exchange, probes the links, and computes the initial allocation. It
// returns an error if no mode works at the configured distance or the
// configuration is invalid.
func NewSession(cfg Config, txBatt, rxBatt *energy.Battery) (*Session, error) {
	if cfg.Model == nil || txBatt == nil || rxBatt == nil {
		return nil, errors.New("mac: session needs a model and two batteries")
	}
	if cfg.RecomputeFrames < 1 {
		return nil, fmt.Errorf("mac: invalid config %+v", cfg)
	}
	if cfg.FallbackCooldown < 0 || cfg.FallbackBackoffBase < 0 || cfg.MaxLinkStrikes < 0 {
		return nil, fmt.Errorf("mac: negative hysteresis parameters %+v", cfg)
	}
	s := &Session{
		cfg:          cfg,
		rng:          rng.New(cfg.Seed),
		txBatt:       txBatt,
		rxBatt:       rxBatt,
		current:      phy.ModeActive,
		snrEWMA:      make(map[phy.Mode]float64),
		dist:         cfg.Distance,
		lastFallback: math.MinInt / 2,
		flapDeadline: -1,
		rec:          obs.Active(cfg.Obs),
	}
	if cfg.Walk != nil {
		s.dist = cfg.Walk.DistanceAt(0)
	}
	s.stats.ModeFrames = make(map[phy.Mode]int)
	if !s.cfg.Model.Available(phy.ModeActive, s.dist) {
		return nil, core.ErrOutOfRange
	}
	s.exchangeBattery()
	s.probeAll()
	if err := s.recompute(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns a copy of the session counters.
func (s *Session) Stats() Stats { return s.stats }

// Allocation returns the current mode allocation.
func (s *Session) Allocation() *core.Allocation { return s.alloc }

// CurrentMode returns the mode the radios are configured in.
func (s *Session) CurrentMode() phy.Mode { return s.current }

// Dead reports whether a battery has been exhausted.
func (s *Session) Dead() bool { return s.dead }

// Distance returns the separation the session currently believes in —
// the walk's value at the last probe/recompute boundary, or the static
// configuration.
func (s *Session) Distance() units.Meter { return s.dist }

// SetDistance moves the endpoints (mobility); the session notices
// degraded SNR through its estimator and falls back / re-probes on its
// own. When a Walk is configured it re-asserts itself at the next
// boundary.
func (s *Session) SetDistance(d units.Meter) {
	s.cfg.Distance = d
	s.dist = d
}

// syncDistance re-reads the walk at a probe/recompute boundary so link
// quality tracks live mobility rather than the session's initial
// separation.
func (s *Session) syncDistance() {
	if s.cfg.Walk != nil {
		s.dist = s.cfg.Walk.DistanceAt(s.stats.AirTime)
	}
}

// impair resets the session's scratch Env for one frame attempt and runs
// the configured fault chain over it. With no faults configured it is
// the identity and costs no randomness.
func (s *Session) impair(m phy.Mode, r units.BitRate, fer float64) *faults.Env {
	s.env.Reset(s.stats.AirTime, m, r, fer)
	if s.cfg.Faults != nil {
		s.cfg.Faults.Impair(&s.env)
	}
	return &s.env
}

// inBackoff reports whether the session is waiting out a re-entry
// backoff window.
func (s *Session) inBackoff() bool {
	return s.reentryUntil > 0 && s.frames < s.reentryUntil
}

// chargeFrame drains both sides for one frame attempt in a mode/rate and
// advances air time. The airtime is stretched by the mode's protocol
// duty overhead (the passive transmitter keeps its carrier up through
// envelope-settling gaps — phy.ProtocolEfficiency). Returns false when a
// battery died.
func (s *Session) chargeFrame(m phy.Mode, r units.BitRate, wireBits float64) bool {
	return s.chargeFrameScaled(m, r, wireBits, 1, 1)
}

// chargeFrameScaled is chargeFrame with per-side drain multipliers — the
// hook brownout injection applies through (a scale of exactly 1 is
// bit-identical to the unscaled path).
func (s *Session) chargeFrameScaled(m phy.Mode, r units.BitRate, wireBits, txScale, rxScale float64) bool {
	t := units.Second(wireBits / float64(r) / phy.ProtocolEfficiency(m))
	eTX := units.Joule(txScale) * units.Energy(phy.TXPower(m, r), t)
	eRX := units.Joule(rxScale) * units.Energy(phy.RXPower(m, r), t)
	okTX := s.txBatt.Drain(eTX)
	okRX := s.rxBatt.Drain(eRX)
	s.stats.AirTime += t
	if s.rec != nil {
		s.rec.AirTime.Add(float64(t))
		s.rec.ModeTime[m].Add(float64(t))
		s.rec.DrainTX.Add(float64(eTX))
		s.rec.DrainRX.Add(float64(eRX))
	}
	if !okTX || !okRX {
		s.dead = true
		return false
	}
	return true
}

// exchangeBattery models the initial telemetry handshake: one battery
// frame in each direction over the active radio.
func (s *Session) exchangeBattery() {
	wire := float64(frame.WireBits(2))
	s.chargeFrame(phy.ModeActive, units.Rate1M, wire)
	s.chargeFrame(phy.ModeActive, units.Rate1M, wire)
}

// refRate is the reference rate each mode's SNR estimator is kept in:
// the slowest (quietest) rate for the envelope links, 1 Mbps for the
// active radio.
func refRate(m phy.Mode) units.BitRate {
	if m == phy.ModeActive {
		return units.Rate1M
	}
	return units.Rate10k
}

// measureSNR returns a noisy per-frame SNR observation for a mode at its
// reference rate. The true channel provides the mean, computed from the
// model each frame; the session only ever acts on the noisy estimate.
func (s *Session) measureSNR(m phy.Mode) (units.DB, units.BitRate) {
	r := refRate(m)
	snr := float64(s.cfg.Model.SNR(m, r, s.dist))
	return units.DB(snr + s.rng.Norm()*snrNoise), r
}

// estimatedSNRAt converts the reference-rate estimate to the SNR the
// mode would see at another rate, using only calibration constants (the
// per-rate noise floors), never the true distance.
func (s *Session) estimatedSNRAt(m phy.Mode, r units.BitRate) units.DB {
	est, ok := s.snrEWMA[m]
	if !ok {
		return units.DB(math.Inf(-1))
	}
	ref := refRate(m)
	// SNR(r) − SNR(ref) = noise(ref) − noise(r), and each noise floor is
	// the calibrated sensitivity minus the scheme's decode requirement.
	noiseRef := phy.Sensitivity(m, ref).Sub(phy.SNRTarget(m, ref))
	noiseR := phy.Sensitivity(m, r).Sub(phy.SNRTarget(m, r))
	return units.DB(est) + units.DB(noiseRef-noiseR)
}

// adaptRate picks the fastest rate whose estimated SNR clears the decode
// requirement with 1 dB of headroom — the estimator-driven equivalent of
// the oracle's BestRate.
func (s *Session) adaptRate(m phy.Mode) (units.BitRate, bool) {
	const headroom = 1.0
	rates := phy.Rates[:]
	if m == phy.ModeActive {
		rates = []units.BitRate{units.Rate1M}
	}
	for _, r := range rates {
		if float64(s.estimatedSNRAt(m, r)) >= float64(phy.SNRTarget(m, r))+headroom {
			return r, true
		}
	}
	return 0, false
}

// probeBits is a probe's airtime: a preamble-and-RSSI-snapshot's worth,
// far shorter than a data frame (probes run at the slow reference rate,
// so their duration is what costs energy).
const probeBits = 32

// probeAll sends probe frames over every mode and seeds the SNR
// estimators (§4.2: "The two end-points use probe packets over the two
// links to determine the SNR and bitrate parameters"). Probes read the
// walk-driven distance and pass through the fault chain: a jammed probe
// seeds a crushed estimate, a dropped carrier seeds carrierLostSNR.
func (s *Session) probeAll() {
	s.syncDistance()
	for _, m := range phy.Modes {
		r := refRate(m)
		env := s.impair(m, r, 0)
		if env.CarrierLost {
			s.snrEWMA[m] = carrierLostSNR
		} else {
			snr, _ := s.measureSNR(m)
			s.snrEWMA[m] = float64(snr) + env.SNROffset
		}
		s.stats.Probes++
		if s.rec != nil {
			s.rec.Probes.Add(1)
		}
		s.chargeFrameScaled(m, r, probeBits, env.TXDrain, env.RXDrain)
	}
}

// characterize builds the mode links from the session's own SNR
// estimates and rate adaptation — the measured equivalent of the PHY
// oracle's Characterize, using only quantities a real endpoint has:
// probe estimates and calibration constants. During a re-entry backoff
// only the active mode is offered, so a flapping link cannot be
// re-admitted until the backoff expires.
func (s *Session) characterize() []phy.ModeLink {
	backoff := s.inBackoff()
	var links []phy.ModeLink
	for _, m := range phy.Modes {
		if backoff && m != phy.ModeActive {
			continue
		}
		r, ok := s.adaptRate(m)
		if !ok {
			continue
		}
		good := units.BitRate(float64(r) * frame.Efficiency(frame.DefaultPayload) * phy.ProtocolEfficiency(m))
		links = append(links, phy.ModeLink{
			Mode: m, Rate: r, Good: good,
			T: units.PerBit(phy.TXPower(m, r), good),
			R: units.PerBit(phy.RXPower(m, r), good),
		})
	}
	return links
}

// recompute re-solves the allocation from current battery levels and
// the measured link characterization, and rebuilds the schedule. Errors
// wrap the optimizer's typed causes (core.ErrOutOfRange,
// core.ErrDegenerateAllocation, core.ErrNoLinks, …) so callers can
// errors.Is them.
func (s *Session) recompute() error {
	s.syncDistance()
	links := s.characterize()
	if len(links) == 0 {
		return fmt.Errorf("mac: recompute: %w", core.ErrOutOfRange)
	}
	alloc, err := core.Optimize(links, s.txBatt.Remaining(), s.rxBatt.Remaining())
	if err != nil {
		return fmt.Errorf("mac: recompute allocation: %w", err)
	}
	s.alloc = alloc
	if s.sched == nil {
		s.sched = core.NewScheduler(alloc.Links, alloc.P)
	} else {
		s.sched.Retarget(alloc.Links, alloc.P)
	}
	s.stats.Recomputes++
	if s.rec != nil {
		s.rec.Recomputes.Add(1)
	}
	return nil
}

// switchTo reconfigures the radios, charging the Table 5 overheads.
func (s *Session) switchTo(m phy.Mode, r units.BitRate) {
	if m == s.current {
		return
	}
	tx, rx := phy.SwitchCost(m, r)
	s.txBatt.Drain(tx)
	s.rxBatt.Drain(rx)
	s.current = m
	s.stats.ModeSwitches++
	if s.rec != nil {
		s.rec.Switches.Add(1)
		s.rec.SwitchEnergy.Add(float64(tx + rx))
		s.rec.Trace(obs.Event{Kind: obs.EvModeSwitch, Mode: m, Round: s.frames, Member: -1, Time: float64(s.stats.AirTime)})
	}
}

// strike records one failed recovery attempt. When the configured budget
// is exhausted it converts the cause into a core.ErrLinkDead that wraps
// it; any delivered frame resets the count.
func (s *Session) strike(cause error) error {
	s.strikes++
	limit := s.cfg.MaxLinkStrikes
	if limit < 1 {
		limit = 1
	}
	if s.strikes >= limit {
		if s.rec != nil {
			s.rec.LinkDeaths.Add(1)
			s.rec.Trace(obs.Event{Kind: obs.EvLinkDead, Round: s.frames, Member: -1, Time: float64(s.stats.AirTime)})
		}
		return fmt.Errorf("%w (%d attempts): %w", core.ErrLinkDead, s.strikes, cause)
	}
	return nil
}

// fallback reverts to the active mode after the current mode degraded
// (§4.2: "Braidio simply falls back to the active mode if the current
// operating mode is performing poorly"), then re-probes and re-computes.
// Hysteresis shapes it: triggers within FallbackCooldown frames of the
// last fallback are suppressed, and a *repeated* fallback additionally
// arms a jittered exponential re-entry backoff during which only the
// active mode is scheduled. A fallback whose re-probe still finds no
// usable link counts a strike; the error is non-nil only once the strike
// budget is gone (core.ErrLinkDead).
func (s *Session) fallback() error {
	if s.frames-s.lastFallback < s.cfg.FallbackCooldown {
		s.stats.FallbacksSuppressed++
		if s.rec != nil {
			s.rec.FallbacksSuppressed.Add(1)
		}
		return nil
	}
	flap := s.frames <= s.flapDeadline
	if flap {
		s.consecFallbacks++
	} else {
		s.consecFallbacks = 1
	}
	s.lastFallback = s.frames
	s.stats.Fallbacks++
	if s.rec != nil {
		s.rec.Fallbacks.Add(1)
		s.rec.Trace(obs.Event{Kind: obs.EvFallback, Round: s.frames, Member: -1, Time: float64(s.stats.AirTime)})
	}
	s.switchTo(phy.ModeActive, units.Rate1M)
	if flap && s.cfg.FallbackBackoffBase > 0 {
		s.reentryUntil = s.frames + s.backoffFrames()
	}
	s.probeAll()
	s.flapDeadline = max(s.frames, s.reentryUntil) + 2*s.cfg.RecomputeFrames
	if err := s.recompute(); err != nil {
		return s.strike(err)
	}
	return nil
}

// backoffFrames returns the current re-entry backoff in frames:
// Base recompute periods doubling per consecutive flap, capped at
// fallbackBackoffMax periods, plus up to +50% jitter drawn from the
// session stream so paired endpoints don't re-probe in lockstep.
func (s *Session) backoffFrames() int {
	periods := s.cfg.FallbackBackoffBase << uint(min(s.consecFallbacks-2, 30))
	periods = min(periods, fallbackBackoffMax)
	frames := periods * s.cfg.RecomputeFrames
	return frames + int(0.5*float64(frames)*s.rng.Float64())
}

// SendFrame moves one data frame of the given payload size through the
// braid, retransmitting on loss. It returns whether the frame was
// delivered; delivery fails when a battery dies or the frame exceeds
// maxRetries (which triggers fallback). A link that stays down through
// bounded recovery attempts returns an error wrapping core.ErrLinkDead.
func (s *Session) SendFrame(payloadLen int) (bool, error) {
	if s.fatal != nil {
		return false, s.fatal
	}
	if s.dead {
		return false, ErrExhausted
	}
	if payloadLen < 0 || payloadLen > frame.MaxPayload {
		return false, fmt.Errorf("mac: payload %d outside [0,%d]", payloadLen, frame.MaxPayload)
	}
	if s.frames > 0 && s.frames%s.cfg.RecomputeFrames == 0 {
		if s.reentryUntil > 0 && s.frames >= s.reentryUntil {
			// Backoff expired: probe immediately so the recompute sees
			// fresh estimates and can re-admit a recovered link.
			s.reentryUntil = 0
			s.probeAll()
		} else if s.inBackoff() {
			// Waiting out the backoff: defer probing and re-admission.
			s.stats.BackoffWaits++
			if s.rec != nil {
				s.rec.BackoffWaits.Add(1)
			}
		} else if (s.frames/s.cfg.RecomputeFrames)%2 == 0 {
			// Every few recomputes, re-probe to keep estimates fresh for
			// modes the current allocation never exercises — the only way
			// to notice a link that *improved* (moving closer never
			// triggers a fallback).
			s.probeAll()
		}
		if err := s.recompute(); err != nil {
			// Keep serving on the stale allocation; the link-death
			// strike budget bounds how long this can go on.
			if ferr := s.strike(err); ferr != nil {
				return false, ferr
			}
		}
	}
	s.frames++

	mode := s.sched.Next().Mode
	rate, ok := s.adaptRate(mode)
	if !ok {
		// The estimator says the scheduled mode no longer decodes
		// (mobility): fall back and retry on the new schedule.
		if err := s.fallback(); err != nil {
			return false, err
		}
		mode, rate = phy.ModeActive, units.Rate1M
	}
	s.switchTo(mode, rate)

	ber := s.cfg.Model.BER(mode, rate, s.dist)
	fer := frame.FrameErrorRate(ber, payloadLen)
	wire := float64(frame.WireBits(payloadLen))

	for attempt := 0; attempt <= maxRetries; attempt++ {
		env := s.impair(mode, rate, fer)
		if !s.chargeFrameScaled(mode, rate, wire, env.TXDrain, env.RXDrain) {
			return false, nil
		}
		if env.CarrierLost {
			// Nothing to decode and nothing to measure; the transmitter
			// paid anyway.
			s.stats.Retransmissions++
			continue
		}
		// Update the SNR estimator with this frame's observation.
		snr, _ := s.measureSNR(mode)
		s.snrEWMA[mode] = 0.9*s.snrEWMA[mode] + 0.1*(float64(snr)+env.SNROffset)
		if s.rng.Float64() >= env.FER {
			s.stats.FramesDelivered++
			s.stats.ModeFrames[mode]++
			s.stats.PayloadBits += float64(8 * payloadLen)
			if s.rec != nil {
				s.rec.FramesDelivered.Add(1)
				s.rec.Bits.Add(float64(8 * payloadLen))
				s.rec.ModeBits[mode].Add(float64(8 * payloadLen))
				s.rec.Retransmissions.Add(uint64(attempt))
			}
			s.nextSeq++
			s.strikes = 0
			if s.inOutage {
				s.inOutage = false
				s.stats.Outages++
			}
			s.trace(mode, rate, attempt+1, true)
			s.maybeFallback(mode, rate)
			return true, nil
		}
		s.stats.Retransmissions++
	}
	s.stats.FramesLost++
	s.inOutage = true
	if s.rec != nil {
		s.rec.FramesLost.Add(1)
		s.rec.Retransmissions.Add(maxRetries + 1)
	}
	s.trace(mode, rate, maxRetries+1, false)
	if mode == phy.ModeActive {
		// The safety net itself is failing: burn a strike.
		if ferr := s.strike(fmt.Errorf("mac: active mode lost a frame after %d attempts", maxRetries+1)); ferr != nil {
			return false, ferr
		}
	}
	if err := s.fallback(); err != nil {
		return false, err
	}
	return false, nil
}

// trace emits one per-frame CSV row when tracing is enabled.
func (s *Session) trace(mode phy.Mode, rate units.BitRate, attempts int, delivered bool) {
	if s.cfg.Trace == nil {
		return
	}
	if !s.traceStarted {
		fmt.Fprintln(s.cfg.Trace, "frame,mode,rate,attempts,delivered,txJ,rxJ,snrEst")
		s.traceStarted = true
	}
	tx, rx := s.Drains()
	fmt.Fprintf(s.cfg.Trace, "%d,%v,%v,%d,%t,%.6g,%.6g,%.2f\n",
		s.frames, mode, rate, attempts, delivered,
		float64(tx), float64(rx), s.snrEWMA[mode])
}

// maybeFallback checks the estimator against the fallback margin. A
// fatal verdict (link dead after bounded attempts) is deferred to the
// next SendFrame so the just-delivered frame still counts.
func (s *Session) maybeFallback(mode phy.Mode, rate units.BitRate) {
	if mode == phy.ModeActive {
		return
	}
	// The decode requirement in dB for the mode's scheme at the range
	// target; estimates below (requirement − margin) trigger fallback.
	if s.snrEWMA[mode] < float64(phy.SNRTarget(mode, rate))-float64(fallbackSNRMargin) {
		if err := s.fallback(); err != nil {
			s.fatal = err
		}
	}
}

// Drains returns the energy drawn so far at each side.
func (s *Session) Drains() (tx, rx units.Joule) {
	return s.txBatt.Drained(), s.rxBatt.Drained()
}

// EffectiveGoodput returns delivered payload bits per second of air time.
func (s *Session) EffectiveGoodput() units.BitRate {
	if s.stats.AirTime <= 0 {
		return 0
	}
	return units.BitRate(s.stats.PayloadBits / float64(s.stats.AirTime))
}

// LossRate returns lost frames / attempted frames.
func (s *Session) LossRate() float64 {
	total := s.stats.FramesDelivered + s.stats.FramesLost
	if total == 0 {
		return 0
	}
	return float64(s.stats.FramesLost) / float64(total)
}

// SNREstimate returns the EWMA SNR estimate for a mode (NaN before any
// probe).
func (s *Session) SNREstimate(m phy.Mode) units.DB {
	v, ok := s.snrEWMA[m]
	if !ok {
		return units.DB(math.NaN())
	}
	return units.DB(v)
}
