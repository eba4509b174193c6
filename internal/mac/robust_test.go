package mac

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/modem"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// TestZeroFaultPathBitIdentical: an empty fault chain must reproduce the
// nil-chain session exactly — same stats, same drains, same draws. Fault
// injection is strictly opt-in; merely wiring the hook into the hot path
// must not perturb the channel. The lossy 2.6 m regime exercises
// retransmission and estimator updates, not just clean deliveries.
func TestZeroFaultPathBitIdentical(t *testing.T) {
	run := func(inj faults.Injector) (Stats, units.Joule, units.Joule) {
		cfg := DefaultConfig(phy.NewModel(), 2.6, 7)
		cfg.Faults = inj
		tx, rx := energy.NewBattery(0.01), energy.NewBattery(0.0001)
		s, err := NewSession(cfg, tx, rx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1200 && !s.Dead(); i++ {
			if _, err := s.SendFrame(240); err != nil {
				t.Fatal(err)
			}
		}
		d1, d2 := s.Drains()
		return s.Stats(), d1, d2
	}
	aStats, aTX, aRX := run(nil)
	bStats, bTX, bRX := run(faults.Chain{})
	if !reflect.DeepEqual(aStats, bStats) {
		t.Errorf("empty chain diverged from nil chain:\n nil:   %+v\n empty: %+v", aStats, bStats)
	}
	if aTX != bTX || aRX != bRX {
		t.Errorf("drains diverged: nil (%v, %v) vs empty (%v, %v)", aTX, aRX, bTX, bRX)
	}
}

// TestSessionWalkDrivesLinkQuality: with a Walk configured, the true
// BER/FER follows the live distance — no SetDistance calls. Before walks
// were threaded in, SendFrame priced loss off the frozen construction
// distance, so a departing endpoint kept enjoying 0.3 m backscatter
// forever.
func TestSessionWalkDrivesLinkQuality(t *testing.T) {
	cfg := DefaultConfig(phy.NewModel(), 0.3, 42)
	cfg.Walk = sim.LinearWalk{Start: 0.3, End: 4, Duration: 0.5}
	s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().AirTime < 0.5 {
		t.Fatalf("test premise broken: %v s of air time has not finished the walk", float64(s.Stats().AirTime))
	}
	if got := s.Distance(); got != 4 {
		t.Errorf("session distance = %v, want the walk's end 4 m", float64(got))
	}
	// Backscatter does not decode at 4 m: after the walk settles, no
	// further backscatter frames may flow.
	bs := s.Stats().ModeFrames[phy.ModeBackscatter]
	delivered := s.Stats().FramesDelivered
	for i := 0; i < 400; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ModeFrames[phy.ModeBackscatter]; got != bs {
		t.Errorf("backscatter frames kept flowing at 4 m: %d → %d", bs, got)
	}
	if s.Stats().FramesDelivered == delivered {
		t.Error("no frames delivered after the walk — active fallback should carry 4 m")
	}
}

// TestRecomputeErrorsWrapTyped: allocation errors escaping recompute must
// wrap the optimizer's typed causes so callers can errors.Is them instead
// of matching strings. An estimator corrupted far below every decode
// requirement makes the measured characterization empty.
func TestRecomputeErrorsWrapTyped(t *testing.T) {
	cfg := DefaultConfig(phy.NewModel(), 0.3, 42)
	cfg.Faults = faults.Chain{faults.NewSNRCorruptor(-200, 0, 1)}
	_, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
	if err == nil {
		t.Fatal("session built with a −200 dB estimator")
	}
	if !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("recompute error %v does not wrap core.ErrOutOfRange", err)
	}
	if !strings.Contains(err.Error(), "recompute") {
		t.Errorf("recompute error %q does not name its path", err)
	}
}

// TestLinkDeathTyped: a channel that stays flat through every retry and
// fallback must surface as core.ErrLinkDead after the bounded strike
// budget — not spin forever and not report battery exhaustion.
func TestLinkDeathTyped(t *testing.T) {
	cfg := DefaultConfig(phy.NewModel(), 0.3, 42)
	// A permanent Bad state losing every frame on every mode.
	cfg.Faults = faults.Chain{faults.NewGilbertElliott(1, 0, 0, 1, 3)}
	s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	for i := 0; i < 20000; i++ {
		if _, sendErr = s.SendFrame(240); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("flat channel never surfaced an error (livelock)")
	}
	if !errors.Is(sendErr, core.ErrLinkDead) {
		t.Errorf("terminal error %v does not wrap core.ErrLinkDead", sendErr)
	}
	if errors.Is(sendErr, ErrExhausted) {
		t.Errorf("link death misreported as battery exhaustion: %v", sendErr)
	}
	// The verdict is sticky: the session refuses further service.
	if _, err := s.SendFrame(240); !errors.Is(err, core.ErrLinkDead) {
		t.Errorf("dead link served another frame: %v", err)
	}
}

// TestDropoutOutageSurvived: a brief carrier dropout loses frames but the
// session rides it out on the strike budget, counts the outage, and
// resumes delivering.
func TestDropoutOutageSurvived(t *testing.T) {
	cfg := DefaultConfig(phy.NewModel(), 0.3, 42)
	cfg.Faults = faults.Chain{&faults.Dropout{Start: 0.1, Duration: 0.04}}
	s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatalf("frame %d: session did not survive a 40 ms dropout: %v", i, err)
		}
	}
	st := s.Stats()
	if st.FramesLost == 0 {
		t.Error("no frames lost across the dropout window")
	}
	if st.Outages == 0 {
		t.Error("outage not counted despite losses ending in recovery")
	}
	// Deliveries must have resumed after the window.
	tail := st.FramesDelivered
	for i := 0; i < 100; i++ {
		ok, err := s.SendFrame(240)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("post-dropout frame %d not delivered", i)
		}
	}
	if s.Stats().FramesDelivered != tail+100 {
		t.Error("deliveries did not fully resume after the dropout")
	}
}

// TestBrownoutScalesDrain: a TX-side brownout multiplies the
// transmitter's spend without touching the receiver's.
func TestBrownoutScalesDrain(t *testing.T) {
	run := func(inj faults.Injector) (tx, rx units.Joule) {
		cfg := DefaultConfig(phy.NewModel(), 0.3, 42)
		cfg.Faults = inj
		s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, err := s.SendFrame(240); err != nil {
				t.Fatal(err)
			}
		}
		return s.Drains()
	}
	baseTX, baseRX := run(nil)
	brownTX, brownRX := run(faults.Chain{&faults.Brownout{Duration: 1e9, Scale: 2.5, Affected: faults.SideTX}})
	if ratio := float64(brownTX / baseTX); ratio < 1.8 || ratio > 2.6 {
		t.Errorf("TX brownout drain ratio = %v, want ≈2.5 (switch/exchange overheads unscaled)", ratio)
	}
	if ratio := float64(brownRX / baseRX); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("RX drain ratio = %v under a TX-only brownout, want ≈1", ratio)
	}
}

// TestFallbackHysteresisBoundsFlapping: a session held at the decode
// margin by a noisy, biased estimator flaps — probes occasionally admit
// the marginal passive link, traffic observations promptly evict it.
// With hysteresis disabled (the pre-hardening behavior) every trigger
// executes a full fallback + probe + recompute; the cooldown and re-entry
// backoff must bound that churn and absorb triggers into
// FallbacksSuppressed.
func TestFallbackHysteresisBoundsFlapping(t *testing.T) {
	m := phy.NewModel()
	const d = units.Meter(2.6)
	const frames = 4000
	need := float64(units.DBFromRatio(modem.SNRForBER(phy.SchemeAt(phy.ModePassive, units.Rate10k), phy.RangeBERTarget)))
	trueSNR := float64(m.SNR(phy.ModePassive, units.Rate10k, d))
	// Mean perceived SNR pinned at the fallback threshold (need − margin),
	// with enough estimator variance that probes still re-admit the link.
	bias := (need - 3.0) - trueSNR

	run := func(seed uint64, hysteresis bool) Stats {
		cfg := DefaultConfig(m, d, seed)
		cfg.RecomputeFrames = 32
		cfg.Faults = faults.Chain{faults.NewSNRCorruptor(bias, 8, seed+1)}
		cfg.MaxLinkStrikes = 1 << 30 // measuring flap churn, not link death
		if hysteresis {
			cfg.FallbackCooldown = 64
			cfg.FallbackBackoffBase = 2
		} else {
			cfg.FallbackCooldown = 0
			cfg.FallbackBackoffBase = 0
		}
		// The tiny RX budget makes the optimizer lean on passive's cheap
		// envelope receiver, so the marginal link stays attractive.
		s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.001))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames && !s.Dead(); i++ {
			if _, err := s.SendFrame(240); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}

	seeds := []uint64{7, 21, 99}
	oldTotal, newTotal, suppressedTotal := 0, 0, 0
	for _, seed := range seeds {
		old := run(seed, false)
		hyst := run(seed, true)
		oldTotal += old.Fallbacks
		newTotal += hyst.Fallbacks
		suppressedTotal += hyst.FallbacksSuppressed
		// The cooldown is an absolute rate limit on executed fallbacks.
		if bound := frames/64 + 2; hyst.Fallbacks > bound {
			t.Errorf("seed %d: %d fallbacks exceed the cooldown bound %d", seed, hyst.Fallbacks, bound)
		}
		if old.FallbacksSuppressed != 0 {
			t.Errorf("seed %d: disabled hysteresis still suppressed %d triggers", seed, old.FallbacksSuppressed)
		}
	}
	// Regression pin on the old behavior: the margin-pinned link flaps.
	if oldTotal < 45 {
		t.Fatalf("test premise broken: only %d fallbacks across %d unhysteretic runs", oldTotal, len(seeds))
	}
	if newTotal*5 > oldTotal*4 {
		t.Errorf("hysteresis barely helped: %d fallbacks vs %d without", newTotal, oldTotal)
	}
	if suppressedTotal < 20 {
		t.Errorf("hysteresis engaged too rarely: %d suppressed triggers", suppressedTotal)
	}
}
