package mac

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/modem"
	"braidio/internal/phy"
	"braidio/internal/units"
)

func newSession(t *testing.T, d units.Meter, c1, c2 units.WattHour) *Session {
	t.Helper()
	s, err := NewSession(DefaultConfig(phy.NewModel(), d, 42), energy.NewBattery(c1), energy.NewBattery(c2))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionDeliversFrames(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	for i := 0; i < 500; i++ {
		ok, err := s.SendFrame(240)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("frame %d not delivered at 0.3 m", i)
		}
	}
	st := s.Stats()
	if st.FramesDelivered != 500 {
		t.Errorf("delivered %d, want 500", st.FramesDelivered)
	}
	if st.PayloadBits != 500*240*8 {
		t.Errorf("payload bits %v", st.PayloadBits)
	}
	if st.AirTime <= 0 {
		t.Error("no air time recorded")
	}
	if g := s.EffectiveGoodput(); float64(g) < 1e5 {
		t.Errorf("goodput %v implausibly low at 0.3 m", g)
	}
}

func TestSessionBraidsModes(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	for i := 0; i < 1000; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Equal batteries at 0.3 m: passive and backscatter both carry
	// roughly half the frames.
	pas, bs := st.ModeFrames[phy.ModePassive], st.ModeFrames[phy.ModeBackscatter]
	if pas < 300 || bs < 300 {
		t.Errorf("mode frames passive=%d backscatter=%d, want ≈500 each", pas, bs)
	}
	if st.ModeSwitches == 0 {
		t.Error("braiding without mode switches")
	}
}

func TestSessionEnergySplitTracksBudgets(t *testing.T) {
	// 10:1 budgets: drains should split roughly 10:1 (the §4 example).
	s := newSession(t, 0.3, 0.01, 0.001)
	for i := 0; i < 2000; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	tx, rx := s.Drains()
	ratio := float64(tx) / float64(rx)
	if ratio < 7 || ratio > 13 {
		t.Errorf("drain ratio = %v, want ≈10", ratio)
	}
}

func TestSessionDrainsUntilDeath(t *testing.T) {
	// Tiny batteries: the session must stop with dead=true.
	s := newSession(t, 0.3, 1e-6, 1e-6)
	delivered := 0
	for i := 0; i < 100000 && !s.Dead(); i++ {
		ok, err := s.SendFrame(240)
		if err != nil {
			break
		}
		if ok {
			delivered++
		}
	}
	if !s.Dead() {
		t.Fatal("session never exhausted 1 µWh batteries")
	}
	if delivered == 0 {
		t.Error("no frames delivered before death")
	}
}

func TestSessionFallsBackOnMobility(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	for i := 0; i < 200; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	pre := s.Stats().Fallbacks
	// Walk out of backscatter range: 0.3 m → 4 m.
	s.SetDistance(4)
	for i := 0; i < 400; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Fallbacks <= pre {
		t.Error("no fallback after moving out of backscatter range")
	}
	// After settling, frames must flow without backscatter.
	tail := st.ModeFrames[phy.ModeBackscatter]
	for i := 0; i < 200; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ModeFrames[phy.ModeBackscatter]; got != tail {
		t.Errorf("backscatter frames kept flowing at 4 m: %d → %d", tail, got)
	}
}

func TestSessionRecovers(t *testing.T) {
	s := newSession(t, 4, 0.01, 0.01)
	for i := 0; i < 100; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	// Walk back into range A; after the next recompute the braid should
	// resume using asymmetric modes.
	s.SetDistance(0.3)
	for i := 0; i < 600; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ModeFrames[phy.ModeBackscatter]; got == 0 {
		t.Error("no backscatter frames after returning to 0.3 m")
	}
}

func TestSessionLossAndRetransmissions(t *testing.T) {
	// Operate where the passive link has a small but real frame error
	// rate (≈3% at 2.6 m / 100 kbps) and budgets that favor using it.
	// Right at the range edge the optimizer would simply avoid the
	// lossy link — its FER is priced into the per-bit costs — so the
	// interesting regime is moderate loss, not collapse.
	cfg := DefaultConfig(phy.NewModel(), 2.6, 7)
	s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	if f := s.Allocation().Fraction(phy.ModePassive); f < 0.1 {
		t.Fatalf("test premise broken: passive fraction = %v", f)
	}
	for i := 0; i < 2000 && !s.Dead(); i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Retransmissions == 0 {
		t.Error("no retransmissions on a lossy link")
	}
	if s.LossRate() > 0.05 {
		t.Errorf("loss rate %v despite retransmission", s.LossRate())
	}
}

func TestSessionProbesAndRecomputes(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	if s.Stats().Probes < 3 {
		t.Errorf("probes = %d, want at least one per mode", s.Stats().Probes)
	}
	pre := s.Stats().Recomputes
	for i := 0; i < 600; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Recomputes <= pre {
		t.Error("no periodic recomputation")
	}
}

func TestSNREstimates(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	for _, m := range phy.Modes {
		est := float64(s.SNREstimate(m))
		if math.IsNaN(est) {
			t.Errorf("no SNR estimate for %v after probing", m)
		}
	}
	// Backscatter at 0.3 m should be comfortably decodable.
	if est := float64(s.SNREstimate(phy.ModeBackscatter)); est < 10 {
		t.Errorf("backscatter SNR estimate %v dB at 0.3 m", est)
	}
}

func TestSessionValidation(t *testing.T) {
	m := phy.NewModel()
	if _, err := NewSession(DefaultConfig(m, 0.3, 1), nil, energy.NewBattery(1)); err == nil {
		t.Error("nil battery accepted")
	}
	bad := DefaultConfig(m, 0.3, 1)
	bad.RecomputeFrames = 0
	if _, err := NewSession(bad, energy.NewBattery(1), energy.NewBattery(1)); err == nil {
		t.Error("zero recompute period accepted")
	}
	if _, err := NewSession(DefaultConfig(m, 9000, 1), energy.NewBattery(1), energy.NewBattery(1)); err == nil {
		t.Error("out-of-range session accepted")
	}
	// A battery the handshake empties, on either side, is ErrExhausted,
	// not the allocator's zero-budget error.
	for _, caps := range [][2]units.WattHour{{1e-300, 1}, {1, 1e-300}} {
		if _, err := NewSession(DefaultConfig(m, 0.3, 1), energy.NewBattery(caps[0]), energy.NewBattery(caps[1])); !errors.Is(err, ErrExhausted) {
			t.Errorf("capacities %v Wh: err = %v, want %v", caps, err, ErrExhausted)
		}
	}
	s := newSession(t, 0.3, 0.01, 0.01)
	if _, err := s.SendFrame(10000); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := s.SendFrame(-1); err == nil {
		t.Error("negative payload accepted")
	}
}

func TestSessionDeterministic(t *testing.T) {
	run := func() Stats {
		s := newSession(t, 1.0, 0.005, 0.005)
		for i := 0; i < 300; i++ {
			if _, err := s.SendFrame(240); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a.FramesDelivered != b.FramesDelivered || a.Retransmissions != b.Retransmissions ||
		a.ModeSwitches != b.ModeSwitches {
		t.Errorf("same-seed sessions diverged: %+v vs %+v", a, b)
	}
}

// TestRateAdaptationMatchesOracle: after probing, the estimator-driven
// rate choice agrees with the oracle BestRate at representative
// distances (the estimate is noisy but unbiased; the 1 dB headroom only
// flips decisions within ~1 dB of a boundary).
func TestRateAdaptationMatchesOracle(t *testing.T) {
	m := phy.NewModel()
	for _, d := range []float64{0.3, 1.2, 2.0, 3.0, 4.8} {
		s, err := NewSession(DefaultConfig(m, units.Meter(d), 11),
			energy.NewBattery(0.01), energy.NewBattery(0.01))
		if err != nil {
			t.Fatal(err)
		}
		// Settle the estimator with traffic.
		for i := 0; i < 200; i++ {
			if _, err := s.SendFrame(240); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range phy.Modes {
			oracleRate, oracleOK := m.BestRate(mode, units.Meter(d))
			adaptRate, adaptOK := s.adaptRate(mode)
			if oracleOK != adaptOK {
				// Disagreement on availability only near a boundary.
				snr := float64(m.SNR(mode, refRate(mode), units.Meter(d)))
				need := float64(units.DBFromRatio(modem.SNRForBER(phy.SchemeAt(mode, refRate(mode)), phy.RangeBERTarget)))
				if math.Abs(snr-need) > 2.5 {
					t.Errorf("d=%v %v: oracle ok=%v adapt ok=%v far from boundary (snr %v vs need %v)",
						d, mode, oracleOK, adaptOK, snr, need)
				}
				continue
			}
			if oracleOK && oracleRate != adaptRate {
				// Same tolerance near rate boundaries.
				snr := float64(m.SNR(mode, oracleRate, units.Meter(d)))
				need := float64(units.DBFromRatio(modem.SNRForBER(phy.SchemeAt(mode, oracleRate), phy.RangeBERTarget)))
				if math.Abs(snr-need) > 2.5 {
					t.Errorf("d=%v %v: oracle %v vs adapted %v far from boundary", d, mode, oracleRate, adaptRate)
				}
			}
		}
	}
}

// TestRateAdaptationReactsToMobility: moving out collapses the
// estimated rate after fresh observations arrive.
func TestRateAdaptationReactsToMobility(t *testing.T) {
	s := newSession(t, 0.3, 0.01, 0.01)
	for i := 0; i < 100; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := s.adaptRate(phy.ModeBackscatter); !ok || r != units.Rate1M {
		t.Fatalf("backscatter at 0.3 m adapted to %v/%v, want 1 Mbps", r, ok)
	}
	s.SetDistance(2.0) // backscatter only decodes at 10 kbps here
	for i := 0; i < 400; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	if r, ok := s.adaptRate(phy.ModeBackscatter); ok && r == units.Rate1M {
		t.Errorf("estimator still believes 1 Mbps after moving to 2 m (rate=%v ok=%v)", r, ok)
	}
}

// TestSessionTrace: the per-frame CSV trace carries one row per data
// frame plus a header, with monotone cumulative drains.
func TestSessionTrace(t *testing.T) {
	var buf strings.Builder
	cfg := DefaultConfig(phy.NewModel(), 0.3, 21)
	cfg.Trace = &buf
	s, err := NewSession(cfg, energy.NewBattery(0.01), energy.NewBattery(0.01))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 50
	for i := 0; i < frames; i++ {
		if _, err := s.SendFrame(240); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != frames+1 {
		t.Fatalf("trace has %d lines, want %d", len(lines), frames+1)
	}
	if !strings.HasPrefix(lines[0], "frame,mode,rate,") {
		t.Errorf("header = %q", lines[0])
	}
	prevTX := -1.0
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			t.Fatalf("row %q has %d fields", line, len(fields))
		}
		var tx float64
		if _, err := fmt.Sscanf(fields[5], "%g", &tx); err != nil {
			t.Fatalf("unparseable txJ in %q", line)
		}
		if tx < prevTX {
			t.Fatal("cumulative drain went backwards")
		}
		prevTX = tx
	}
}
