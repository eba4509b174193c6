package braidio

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"braidio/internal/core"
)

func mustDevice(t *testing.T, name string) Device {
	t.Helper()
	d, ok := DeviceByName(name)
	if !ok {
		t.Fatalf("device %q missing from catalog", name)
	}
	return d
}

func TestDevicesCatalog(t *testing.T) {
	if len(Devices()) != 10 {
		t.Fatalf("catalog has %d devices, want 10", len(Devices()))
	}
	if _, ok := DeviceByName("Pebble Watch"); !ok {
		t.Error("Pebble Watch missing")
	}
}

func TestCustomDevice(t *testing.T) {
	d := CustomDevice("drone", 30)
	if d.Capacity != 30 || d.Name != "drone" {
		t.Errorf("custom device = %+v", d)
	}
	p := NewPair(d, mustDevice(t, "iPhone 6S"), 0.5)
	if _, err := p.Transfer(); err != nil {
		t.Fatal(err)
	}
}

func TestPairTransferEndToEnd(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	phone := mustDevice(t, "iPhone 6S")
	p := NewPair(watch, phone, 0.5)

	if p.Regime() != RegimeA {
		t.Errorf("regime at 0.5 m = %v, want A", p.Regime())
	}
	if got := len(p.Links()); got != 3 {
		t.Errorf("links = %d, want 3", got)
	}

	plan, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Watch is the small battery and it transmits: backscatter should
	// dominate the plan.
	if plan.Fraction(ModeBackscatter) < 0.8 {
		t.Errorf("backscatter fraction = %v, want dominant", plan.Fraction(ModeBackscatter))
	}

	res, err := p.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits <= 0 {
		t.Fatal("no bits transferred")
	}
	// Power proportionality: drains in roughly the battery ratio.
	wantRatio := float64(watch.Capacity / phone.Capacity)
	gotRatio := float64(res.Drain1 / res.Drain2)
	if math.Abs(math.Log(gotRatio/wantRatio)) > 0.05 {
		t.Errorf("drain ratio %v, want ≈%v", gotRatio, wantRatio)
	}
}

func TestPairTransferBits(t *testing.T) {
	p := NewPair(mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S"), 0.5)
	res, err := p.TransferBits(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bits-1e9)/1e9 > 0.01 {
		t.Errorf("bounded transfer moved %v bits, want ≈1e9", res.Bits)
	}
	// A second full Transfer is unaffected by the earlier bound.
	full, err := p.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	if full.Bits <= res.Bits*10 {
		t.Errorf("full transfer %v bits suspiciously small", full.Bits)
	}
}

// TestPairTransferBitsRejectsUnboundedBudget: a bit budget that is not
// positive and finite returns an error naming it, instead of running the
// whole transfer.
func TestPairTransferBitsRejectsUnboundedBudget(t *testing.T) {
	p := NewPair(mustDevice(t, "iPhone 6S"), mustDevice(t, "Apple Watch"), 0.5)
	for _, bits := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		res, err := p.TransferBits(bits)
		if err == nil {
			t.Errorf("TransferBits(%v) moved %v bits, want an error", bits, res.Bits)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprint(bits)) {
			t.Errorf("TransferBits(%v) error %q does not name the budget", bits, err)
		}
	}
}

func TestPairResume(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	phone := mustDevice(t, "iPhone 6S")
	p := NewPair(watch, phone, 0.5)
	b1 := watch.NewBattery()
	b2 := phone.NewBattery()
	b1.Drain(b1.Capacity() / 2)
	res, err := p.Resume(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Empty() && !b2.Empty() {
		t.Error("resume did not run to exhaustion")
	}
	if res.Bits <= 0 {
		t.Error("no bits on resume")
	}
}

func TestPairGains(t *testing.T) {
	fuel := mustDevice(t, "Nike Fuel Band")
	mbp := mustDevice(t, "MacBook Pro 15")
	p := NewPair(fuel, mbp, 0.5)
	g, err := p.GainVsBluetooth()
	if err != nil {
		t.Fatal(err)
	}
	if g < 300 {
		t.Errorf("corner gain vs Bluetooth = %v, want hundreds", g)
	}
	gb, err := p.GainVsBestMode()
	if err != nil {
		t.Fatal(err)
	}
	if gb < 0.99 || gb > 1.1 {
		t.Errorf("corner gain vs best mode = %v, want ≈1", gb)
	}
}

func TestWithModelOption(t *testing.T) {
	m := NewModel()
	m.FadeMargin = 6
	p := NewPair(mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S"), 2.2, WithModel(m))
	// 6 dB of fading shrinks the round-trip backscatter range by
	// 10^(6/40) ≈ 1.4× (2.4 m → 1.7 m), killing it at 2.2 m, while the
	// one-way passive link (5.1 m → 2.55 m) survives.
	if p.Regime() != RegimeB {
		t.Errorf("faded regime at 2.2 m = %v, want B", p.Regime())
	}
	if NewPair(mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S"), 2.2).Regime() != RegimeA {
		t.Error("unfaded regime at 2.2 m should be A")
	}
}

func TestWithoutSwitchOverheadOption(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	with := NewPair(watch, watch, 0.5)
	without := NewPair(watch, watch, 0.5, WithoutSwitchOverhead())
	rw, err := with.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := without.Transfer()
	if err != nil {
		t.Fatal(err)
	}
	if ro.SwitchEnergy1 != 0 {
		t.Error("switch energy recorded with overhead disabled")
	}
	if ro.Bits < rw.Bits {
		t.Error("disabling overhead reduced throughput")
	}
}

func TestPairSession(t *testing.T) {
	p := NewPair(mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S"), 0.5)
	s, err := p.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.SendFrame(200); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().FramesDelivered != 100 {
		t.Errorf("delivered %d frames, want 100", s.Stats().FramesDelivered)
	}
}

// TestRunFleetConvenience: the one-call form matches an explicit Fleet.
func TestRunFleetConvenience(t *testing.T) {
	phone, watch := mustDevice(t, "iPhone 6S"), mustDevice(t, "Apple Watch")
	build := func(shard int, st *RNG) (*Hub, error) {
		h := NewHub(phone)
		for j := 0; j < 2; j++ {
			m := HubMember{Device: watch, Distance: Meter(0.3 + 1.5*st.Float64()), Load: BitRate(1000 + st.Intn(50000))}
			if err := h.Add(m); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	a, err := RunFleet(3, 11, build, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Fleet{Shards: 3, Seed: 11, Build: build}).Run(900, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBits() <= 0 || a.TotalBits() != b.TotalBits() {
		t.Errorf("RunFleet diverged from Fleet.Run: %v vs %v bits", a.TotalBits(), b.TotalBits())
	}
}

func TestBluetoothBaselineExported(t *testing.T) {
	b := BluetoothBaseline()
	if b.PowerRatio() != 1 {
		t.Errorf("baseline power ratio = %v, want symmetric", b.PowerRatio())
	}
}

func TestGainMatrixSmall(t *testing.T) {
	devs := []Device{mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S")}
	m, err := GainMatrix(0.5, devs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 || len(m.Cells[0]) != 2 {
		t.Fatalf("matrix shape wrong: %v", m.Cells)
	}
	diag := m.Diagonal()
	for _, g := range diag {
		if math.Abs(g-1.43) > 0.08 {
			t.Errorf("diagonal gain %v, want ≈1.43", g)
		}
	}
	bm, err := GainMatrixBestMode(0.5, devs)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Max() > 2 {
		t.Errorf("best-mode matrix max %v, want bounded by ~1.8", bm.Max())
	}
	bi, err := GainMatrixBidirectional(0.5, devs)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Max() < 1 {
		t.Errorf("bidirectional matrix max %v", bi.Max())
	}
}

func TestPairPlanQoS(t *testing.T) {
	band := mustDevice(t, "Nike Fuel Band")
	phone := mustDevice(t, "iPhone 6S")
	p := NewPair(band, phone, 2.0)
	plain, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	qos, err := p.PlanQoS(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if qos.Throughput() < 300_000*0.999 {
		t.Errorf("QoS throughput = %v, want ≥300 kbps", qos.Throughput())
	}
	if qos.Bits > plain.Bits {
		t.Error("rate floor should not increase delivered bits")
	}
}

func TestPairModelAccessorAndNilCatalog(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	p := NewPair(watch, watch, 0.5)
	if p.Model() == nil {
		t.Fatal("nil model")
	}
	if p.Model().Regime(0.5) != RegimeA {
		t.Error("model accessor returned the wrong model")
	}
}

func TestPairDuplex(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	phone := mustDevice(t, "iPhone 6S")
	d, err := NewPair(watch, phone, 0.5).NewDuplex(3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d.Exchange(200)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("exchange delivered %d of 2", n)
	}
	a, b := d.Drains()
	if a <= 0 || b <= 0 {
		t.Error("no drains after an exchange")
	}
}

func TestGainErrorsOutOfRange(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	p := NewPair(watch, watch, 5000)
	if _, err := p.GainVsBluetooth(); err == nil {
		t.Error("out-of-range gain should error")
	}
	if _, err := p.GainVsBestMode(); err == nil {
		t.Error("out-of-range best-mode gain should error")
	}
	if _, err := GainMatrix(5000, []Device{watch}); err == nil {
		t.Error("out-of-range matrix should error")
	}
}

// TestNonPositiveDistance: a distance that is not positive receives no
// power and has no link, so every public entry point returns the error it
// returns for an unreachable pair instead of panicking in the path-loss
// model: the model's SNR is −Inf and its BER 0.5 there, and a session
// whose walk reaches it finds no rate or strikes until the link is dead.
func TestNonPositiveDistance(t *testing.T) {
	watch, phone := mustDevice(t, "Apple Watch"), mustDevice(t, "iPhone 6S")
	m := NewModel()
	for _, d := range []Meter{0, -1, Meter(math.NaN())} {
		if p := m.ReceivedPower(ModeBackscatter, d); !math.IsInf(float64(p), -1) {
			t.Errorf("d=%v: ReceivedPower = %v dBm, want -Inf", float64(d), p)
		}
		if snr := m.SNR(ModeActive, Rate1M, d); !math.IsInf(float64(snr), -1) {
			t.Errorf("d=%v: SNR = %v dB, want -Inf", float64(d), snr)
		}
		if ber := m.BER(ModePassive, Rate10k, d); ber != 0.5 {
			t.Errorf("d=%v: BER = %v, want 0.5", float64(d), ber)
		}
		if l := m.LinkAt(ModeActive, Rate1M, d); l.Good != 0 || !math.IsInf(float64(l.T), 1) || !math.IsInf(float64(l.R), 1) {
			t.Errorf("d=%v: LinkAt = %+v, want zero goodput and +Inf costs", float64(d), l)
		}
		for _, hops := range [][2]Meter{{d, 1}, {1, d}} {
			if l, ok := m.SharedCarrierLink(hops[0], hops[1]); ok {
				t.Errorf("d=%v: SharedCarrierLink(%v, %v) = %+v, want no link", float64(d), float64(hops[0]), float64(hops[1]), l)
			}
		}
	}
	for _, d := range []Meter{0, -1} {
		// The walk starts in range and reaches d once any air time has
		// passed: right after the battery exchange, or 50 ms in.
		vanishing := NewPair(watch, phone, 0.5, WithWalk(LinearWalk{Start: 0.5, End: d, Duration: 1e-9}))
		if _, err := vanishing.NewSession(1); !errors.Is(err, core.ErrOutOfRange) {
			t.Errorf("d=%v: NewSession on a walk reaching d after the battery exchange = %v, want %v", float64(d), err, core.ErrOutOfRange)
		}
		leaving := NewPair(watch, phone, 0.5, WithWalk(LinearWalk{Start: 0.5, End: d, Duration: 0.05}))
		s, err := leaving.NewSession(1)
		if err != nil {
			t.Fatalf("d=%v: NewSession on a walk starting at 0.5 m: %v", float64(d), err)
		}
		var sendErr error
		for i := 0; i < 100_000 && sendErr == nil; i++ {
			_, sendErr = s.SendFrame(64)
		}
		if !errors.Is(sendErr, core.ErrLinkDead) {
			t.Errorf("d=%v: SendFrame after the walk reaches d = %v, want %v", float64(d), sendErr, core.ErrLinkDead)
		}
	}
	for _, d := range []Meter{0, -1} {
		p := NewPair(watch, phone, d)
		for _, c := range []struct {
			name string
			want error
			call func() error
		}{
			{"Transfer", core.ErrOutOfRange, func() error { _, err := p.Transfer(); return err }},
			{"TransferBits", core.ErrOutOfRange, func() error { _, err := p.TransferBits(1e6); return err }},
			{"Plan", core.ErrNoLinks, func() error { _, err := p.Plan(); return err }},
			{"PlanQoS", core.ErrNoLinks, func() error { _, err := p.PlanQoS(Rate100k); return err }},
			{"NewSession", core.ErrOutOfRange, func() error { _, err := p.NewSession(1); return err }},
			{"NewDuplex", core.ErrOutOfRange, func() error { _, err := p.NewDuplex(1); return err }},
			{"GainVsBluetooth", core.ErrOutOfRange, func() error { _, err := p.GainVsBluetooth(); return err }},
			{"GainVsBestMode", core.ErrOutOfRange, func() error { _, err := p.GainVsBestMode(); return err }},
			{"GainMatrix", core.ErrOutOfRange, func() error { _, err := GainMatrix(d, []Device{watch}); return err }},
		} {
			if err := c.call(); !errors.Is(err, c.want) {
				t.Errorf("d=%v: %s = %v, want %v", float64(d), c.name, err, c.want)
			}
		}
		if r := p.Regime(); r != OutOfRange {
			t.Errorf("d=%v: Regime = %v, want %v", float64(d), r, OutOfRange)
		}
		if ls := p.Links(); len(ls) != 0 {
			t.Errorf("d=%v: Links = %d links, want none", float64(d), len(ls))
		}
		err := NewHub(phone).Add(HubMember{Device: watch, Distance: d, Load: 1000})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("d=%v: Hub.Add = %v, want the out-of-range error", float64(d), err)
		}
	}
}

// TestBadDeviceIsAnError gives every entry point that makes batteries
// from devices one whose capacity is not positive and finite, on either
// side, and demands an error wrapping ErrBadDevice. A zero capacity used
// to panic in energy.NewBattery: on the caller's goroutine for the Pair
// methods, and inside a worker goroutine, past any recover, for the gain
// matrices. Plan and PlanQoS, which make no battery, answer the same.
func TestBadDeviceIsAnError(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	entries := []struct {
		name string
		call func(tx, rx Device) error
	}{
		{"Transfer", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).Transfer(); return err }},
		{"TransferBits", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).TransferBits(1e6); return err }},
		{"GainVsBluetooth", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).GainVsBluetooth(); return err }},
		{"GainVsBestMode", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).GainVsBestMode(); return err }},
		{"NewSession", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).NewSession(1); return err }},
		{"NewDuplex", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).NewDuplex(1); return err }},
		{"Plan", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).Plan(); return err }},
		{"PlanQoS", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).PlanQoS(Rate10k); return err }},
		{"GainMatrix", func(tx, rx Device) error { _, err := GainMatrix(0.5, []Device{tx, rx}); return err }},
		{"GainMatrixBestMode", func(tx, rx Device) error { _, err := GainMatrixBestMode(0.5, []Device{tx, rx}); return err }},
		{"GainMatrixBidirectional", func(tx, rx Device) error { _, err := GainMatrixBidirectional(0.5, []Device{tx, rx}); return err }},
	}
	for _, entry := range entries {
		t.Run(entry.name, func(t *testing.T) {
			for _, c := range []float64{0, -1, math.NaN(), math.Inf(1)} {
				bad := CustomDevice("bad", WattHour(c))
				for _, side := range [][2]Device{{bad, watch}, {watch, bad}} {
					if err := entry.call(side[0], side[1]); !errors.Is(err, ErrBadDevice) {
						t.Errorf("capacity %v, %s→%s: err = %v, want %v", c, side[0].Name, side[1].Name, err, ErrBadDevice)
					}
				}
			}
		})
	}
}

// TestHandshakeExhaustionIsErrSessionExhausted gives NewSession and
// NewDuplex a device too small to finish the session handshake (the
// battery exchange and the first probes), on either side, and demands an
// error wrapping ErrSessionExhausted, not the allocator's "non-positive
// budgets" error, which wraps no exported value.
func TestHandshakeExhaustionIsErrSessionExhausted(t *testing.T) {
	watch := mustDevice(t, "Apple Watch")
	entries := []struct {
		name string
		call func(tx, rx Device) error
	}{
		{"NewSession", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).NewSession(1); return err }},
		{"NewDuplex", func(tx, rx Device) error { _, err := NewPair(tx, rx, 0.5).NewDuplex(1); return err }},
	}
	for _, entry := range entries {
		t.Run(entry.name, func(t *testing.T) {
			for _, c := range []WattHour{1e-300, 1e-8} {
				tiny := CustomDevice("tiny", c)
				for _, side := range [][2]Device{{tiny, watch}, {watch, tiny}} {
					if err := entry.call(side[0], side[1]); !errors.Is(err, ErrSessionExhausted) {
						t.Errorf("capacity %v Wh, %s→%s: err = %v, want %v", float64(c), side[0].Name, side[1].Name, err, ErrSessionExhausted)
					}
				}
			}
		})
	}
}
