package sim

import (
	"errors"
	"math"
	"testing"

	"braidio/internal/baseline"
	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/linkcache"
	"braidio/internal/mac"
	"braidio/internal/phy"
	"braidio/internal/units"
)

func device(t testing.TB, name string) energy.Device {
	t.Helper()
	d, ok := energy.DeviceByName(name)
	if !ok {
		t.Fatalf("unknown device %q", name)
	}
	return d
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*b }

// TestFig15Corners pins the headline Fig. 15 numbers: a Fuel Band
// transmitting to a MacBook Pro 15 gains ≈397× over Bluetooth via
// backscatter; the reverse direction gains ≈299× via the passive
// receiver.
func TestFig15Corners(t *testing.T) {
	m := phy.NewModel()
	fuel := device(t, "Nike Fuel Band")
	mbp := device(t, "MacBook Pro 15")

	up, err := RunPair(m, 0.5, fuel, mbp)
	if err != nil {
		t.Fatal(err)
	}
	if g := up.GainVsBluetooth(); !approx(g, 397, 0.10) {
		t.Errorf("FuelBand→MBP15 gain = %v, want ≈397", g)
	}
	if f := up.Braidio.ModeFraction(phy.ModeBackscatter); f < 0.95 {
		t.Errorf("uplink backscatter fraction = %v, want ≈1", f)
	}

	down, err := RunPair(m, 0.5, mbp, fuel)
	if err != nil {
		t.Fatal(err)
	}
	if g := down.GainVsBluetooth(); !approx(g, 299, 0.10) {
		t.Errorf("MBP15→FuelBand gain = %v, want ≈299", g)
	}
	if f := down.Braidio.ModeFraction(phy.ModePassive); f < 0.95 {
		t.Errorf("downlink passive fraction = %v, want ≈1", f)
	}
}

// TestFig15Diagonal pins the equal-device gain at ≈1.43.
func TestFig15Diagonal(t *testing.T) {
	m := phy.NewModel()
	for _, name := range []string{"Pebble Watch", "iPhone 6S", "MacBook Pro 13"} {
		d := device(t, name)
		r, err := RunPair(m, 0.5, d, d)
		if err != nil {
			t.Fatal(err)
		}
		if g := r.GainVsBluetooth(); !approx(g, 1.43, 0.03) {
			t.Errorf("%s↔%s gain = %v, want ≈1.43", name, name, g)
		}
	}
}

// TestFig15MidCell checks a representative interior cell: iPhone 6S
// transmitting to an Apple Watch (paper: 5.85).
func TestFig15MidCell(t *testing.T) {
	m := phy.NewModel()
	r, err := RunPair(m, 0.5, device(t, "iPhone 6S"), device(t, "Apple Watch"))
	if err != nil {
		t.Fatal(err)
	}
	if g := r.GainVsBluetooth(); g < 4 || g > 8 {
		t.Errorf("iPhone6S→AppleWatch gain = %v, want ≈5–6 (paper 5.85)", g)
	}
}

// TestFig16Shape verifies the Fig. 16 structure: modest gains (≈1.43 on
// the diagonal, bounded by ≈2), approaching 1 at extreme asymmetry where
// a single mode dominates.
func TestFig16Shape(t *testing.T) {
	m := phy.NewModel()
	fuel := device(t, "Nike Fuel Band")
	mbp := device(t, "MacBook Pro 15")
	watch := device(t, "Apple Watch")

	diag, err := RunPair(m, 0.5, watch, watch)
	if err != nil {
		t.Fatal(err)
	}
	if g := diag.GainVsBestMode(); !approx(g, 1.43, 0.03) {
		t.Errorf("diagonal gain vs best mode = %v, want ≈1.43", g)
	}
	corner, err := RunPair(m, 0.5, fuel, mbp)
	if err != nil {
		t.Fatal(err)
	}
	if g := corner.GainVsBestMode(); g > 1.05 {
		t.Errorf("extreme-asymmetry gain vs best mode = %v, want ≈1", g)
	}
	if corner.BestMode != phy.ModeBackscatter {
		t.Errorf("best single mode for FuelBand→MBP15 = %v, want backscatter", corner.BestMode)
	}
}

// TestGainMatrixFig15 runs the full 10×10 matrix and checks its global
// shape: max ≈397 at the corner, diagonal ≈1.43, all cells ≥ 1.
func TestGainMatrixFig15(t *testing.T) {
	m := phy.NewModel()
	mat, err := GainMatrixBluetooth(m, 0.5, energy.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if max := mat.Max(); !approx(max, 397, 0.12) {
		t.Errorf("matrix max = %v, want ≈397", max)
	}
	for i, g := range mat.Diagonal() {
		if !approx(g, 1.43, 0.05) {
			t.Errorf("diagonal[%d] = %v, want ≈1.43", i, g)
		}
	}
	for r, row := range mat.Cells {
		for c, v := range row {
			if v < 0.99 {
				t.Errorf("cell[%d][%d] = %v < 1: Braidio must never lose to Bluetooth", r, c, v)
			}
		}
	}
	// The matrix is anti-symmetric in magnitude: uplink corner beats
	// downlink corner (397 vs 299) because backscatter's ratio exceeds
	// passive's.
	up, _ := mat.At("Nike Fuel Band", "MacBook Pro 15")
	down, _ := mat.At("MacBook Pro 15", "Nike Fuel Band")
	if up <= down {
		t.Errorf("corner asymmetry inverted: up %v vs down %v", up, down)
	}
}

// TestFig17Bidirectional checks the role-swap scenario: corner gains in
// the ≈350 region (paper: 350/368) and diagonal ≈1.43.
func TestFig17Bidirectional(t *testing.T) {
	m := phy.NewModel()
	fuel := device(t, "Nike Fuel Band")
	mbp := device(t, "MacBook Pro 15")
	r, err := RunBidirectional(m, 0.5, fuel, mbp)
	if err != nil {
		t.Fatal(err)
	}
	if g := r.Gain(); !approx(g, 350, 0.15) {
		t.Errorf("bidirectional corner gain = %v, want ≈350", g)
	}
	if r.Rounds < 10 {
		t.Errorf("only %d role swaps", r.Rounds)
	}
	watch := device(t, "Apple Watch")
	same, err := RunBidirectional(m, 0.5, watch, watch)
	if err != nil {
		t.Fatal(err)
	}
	if g := same.Gain(); !approx(g, 1.43, 0.06) {
		t.Errorf("bidirectional diagonal gain = %v, want ≈1.43", g)
	}
}

// TestFig17BeatsFig15MidMatrix: bidirectional gains exceed unidirectional
// for asymmetric pairs ("the device with less energy budget is able to
// use the backscatter mode when communicating and the passive receiver
// mode when receiving").
func TestFig17BeatsFig15MidMatrix(t *testing.T) {
	m := phy.NewModel()
	phone := device(t, "iPhone 6S")
	watch := device(t, "Apple Watch")
	uni, err := RunPair(m, 0.5, phone, watch)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := RunBidirectional(m, 0.5, phone, watch)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Gain() <= uni.GainVsBluetooth() {
		t.Errorf("bidirectional gain %v not above unidirectional %v", bi.Gain(), uni.GainVsBluetooth())
	}
}

// TestFig18DistanceSweep verifies the distance behaviour: gains decrease
// with distance, with a sharp drop once backscatter dies (2.4 m) for the
// small→large direction.
func TestFig18DistanceSweep(t *testing.T) {
	m := phy.NewModel()
	fuel := device(t, "Nike Fuel Band")
	phone := device(t, "iPhone 6S")
	distances := []units.Meter{0.5, 1, 1.5, 2, 3, 4, 5}
	up, err := DistanceSweep(m, fuel, phone, distances)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != len(distances) {
		t.Fatalf("sweep has %d points, want %d", len(up), len(distances))
	}
	// Monotone non-increasing (within small tolerance).
	for i := 1; i < len(up); i++ {
		if up[i].Y > up[i-1].Y*1.02 {
			t.Errorf("gain increased with distance at %v m: %v → %v", up[i].X, up[i-1].Y, up[i].Y)
		}
	}
	// Strong at 0.5 m (the paper's Fig. 15 cell for this pair is 27.9),
	// collapsed after backscatter dies at 2.4 m for the
	// small-transmitter direction.
	if up[0].Y < 20 || up[0].Y > 36 {
		t.Errorf("short-range gain = %v, want ≈27.9", up[0].Y)
	}
	at3 := up.Interpolate(3)
	if at3 > 3 {
		t.Errorf("FuelBand→iPhone gain at 3 m = %v, want collapsed (backscatter gone)", at3)
	}
	// The reverse direction (passive receiver) keeps double-digit gains
	// past 3 m (§6.3 Scenario 3).
	down, err := DistanceSweep(m, phone, fuel, distances)
	if err != nil {
		t.Fatal(err)
	}
	if got := down.Interpolate(3); got < 10 {
		t.Errorf("iPhone→FuelBand gain at 3 m = %v, want >10 via passive mode", got)
	}
}

func TestRunPairErrors(t *testing.T) {
	if _, err := RunPair(nil, 1, energy.Catalog[0], energy.Catalog[1]); err == nil {
		t.Error("nil model accepted")
	}
	m := phy.NewModel()
	if _, err := RunPair(m, 5000, energy.Catalog[0], energy.Catalog[1]); !errors.Is(err, core.ErrOutOfRange) {
		t.Errorf("out-of-range pair: error %v, want core.ErrOutOfRange", err)
	}
	// A zero-capacity device is refused before any battery is made, and
	// a matrix refuses it before its fan-out.
	good, bad := energy.Catalog[0], energy.Device{Name: "empty"}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"RunPair", func() error { _, err := RunPair(m, 1, good, bad); return err }},
		{"RunBidirectional", func() error { _, err := RunBidirectional(m, 1, bad, good); return err }},
		{"GainMatrixBluetooth", func() error { _, err := GainMatrixBluetooth(m, 1, []energy.Device{good, bad}); return err }},
		{"GainMatrixBestMode", func() error { _, err := GainMatrixBestMode(m, 1, []energy.Device{good, bad}); return err }},
		{"GainMatrixBidirectional", func() error { _, err := GainMatrixBidirectional(m, 1, []energy.Device{good, bad}); return err }},
	} {
		if err := c.call(); !errors.Is(err, energy.ErrBadDevice) {
			t.Errorf("%s with a zero-capacity device: error %v, want energy.ErrBadDevice", c.name, err)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := &Matrix{
		Devices: energy.Catalog[:2],
		Cells:   [][]float64{{1, 2}, {3, 4}},
	}
	if v, ok := m.At("Pebble Watch", "Nike Fuel Band"); !ok || v != 2 {
		t.Errorf("At = %v,%v, want 2,true", v, ok)
	}
	if _, ok := m.At("nope", "Nike Fuel Band"); ok {
		t.Error("unknown device found")
	}
	if m.Max() != 4 {
		t.Errorf("Max = %v", m.Max())
	}
	d := m.Diagonal()
	if d[0] != 1 || d[1] != 4 {
		t.Errorf("Diagonal = %v", d)
	}
}

// TestMACMatchesBraid cross-validates the two engines: for a small pair
// at short range, the packet-level MAC (ARQ world, probes, switch costs)
// delivers within ~20% of the chunked braid engine's ideal projection.
func TestMACMatchesBraid(t *testing.T) {
	m := phy.NewModel()
	const c1, c2 = 2e-4, 2e-4 // 0.2 mWh each: a quick run
	braid := core.NewBraid(m, 0.4)
	ideal, err := braid.RunFresh(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mac.DefaultConfig(m, 0.4, 5)
	s, err := mac.NewSession(cfg, energy.NewBattery(c1), energy.NewBattery(c2))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Dead() {
		if _, err := s.SendFrame(240); err != nil {
			break
		}
	}
	macBits := s.Stats().PayloadBits
	ratio := macBits / ideal.Bits
	if ratio < 0.8 || ratio > 1.05 {
		t.Errorf("MAC delivered %v bits vs braid %v (ratio %v)", macBits, ideal.Bits, ratio)
	}
}

// TestGainMatrixVariantsSmall runs the Fig. 16/17 builders on a 2-device
// subset, checking the gains land in their documented bands.
func TestGainMatrixVariantsSmall(t *testing.T) {
	m := phy.NewModel()
	devs := []energy.Device{device(t, "Apple Watch"), device(t, "iPhone 6S")}
	best, err := GainMatrixBestMode(m, 0.5, devs)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range best.Cells {
		for _, v := range row {
			if v < 0.99 || v > 2 {
				t.Errorf("best-mode gain %v outside [1, 2]", v)
			}
		}
	}
	bi, err := GainMatrixBidirectional(m, 0.5, devs)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := bi.At("Apple Watch", "iPhone 6S"); g < 1 {
		t.Errorf("bidirectional gain %v < 1", g)
	}
}

// TestDistanceSweepSkipsDeadDistances: out-of-range points drop out of
// the series instead of erroring the sweep.
func TestDistanceSweepSkipsDeadDistances(t *testing.T) {
	m := phy.NewModel()
	s, err := DistanceSweep(m, device(t, "Apple Watch"), device(t, "iPhone 6S"),
		[]units.Meter{0.5, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 {
		t.Errorf("sweep kept %d points, want 1", len(s))
	}
	if _, err := DistanceSweep(m, device(t, "Apple Watch"), device(t, "iPhone 6S"),
		[]units.Meter{5000}); err == nil {
		t.Error("all-dead sweep should error")
	}
}

// runBidirectionalFresh is RunBidirectional as it ran before the chunks
// shared one braid: a NewBraid and a Run per chunk, each characterizing
// the distance again. TestRunBidirectionalMatchesFreshBraids holds the
// shared-braid loop to it.
func runBidirectionalFresh(m *phy.Model, d units.Meter, a, b energy.Device) (*BidirectionalResult, error) {
	ba := a.NewBattery()
	bb := b.NewBattery()
	links := linkcache.Characterize(m, d)
	alloc, err := core.Optimize(links, ba.Remaining(), bb.Remaining())
	if err != nil {
		return nil, err
	}
	chunk := alloc.Bits / 50
	if chunk < 1 {
		chunk = 1
	}
	res := &BidirectionalResult{A: a, B: b}
	aToB := true
	for !ba.Empty() && !bb.Empty() {
		braid := core.NewBraid(m, d)
		braid.MaxBits = chunk
		var run *core.Result
		var err error
		if aToB {
			run, err = braid.Run(ba, bb)
		} else {
			run, err = braid.Run(bb, ba)
		}
		if err != nil {
			return nil, err
		}
		res.Bits += run.Bits
		res.Rounds++
		if run.Bits < chunk*0.5 {
			break
		}
		aToB = !aToB
	}
	txCost, rxCost := baseline.Default.PerBit()
	per := (float64(txCost) + float64(rxCost)) / 2
	res.BluetoothBits = min(float64(a.Capacity.Joules()), float64(b.Capacity.Joules())) / per
	return res, nil
}

// TestRunBidirectionalMatchesFreshBraids: running every role-swap chunk
// through one braid, scratch and result gives the bits of a fresh braid
// per chunk, for every catalog pair at 0.5 m, at 1.5 m and at 3 m,
// where backscatter is out of range.
func TestRunBidirectionalMatchesFreshBraids(t *testing.T) {
	m := phy.NewModel()
	for _, d := range []units.Meter{0.5, 1.5, 3} {
		for _, a := range energy.Catalog {
			for _, b := range energy.Catalog {
				want, wantErr := runBidirectionalFresh(m, d, a, b)
				got, err := RunBidirectional(m, d, a, b)
				if err != nil || wantErr != nil {
					t.Fatalf("%s↔%s at %v m: %v (fresh braids: %v)", a.Name, b.Name, float64(d), err, wantErr)
				}
				if math.Float64bits(got.Bits) != math.Float64bits(want.Bits) ||
					math.Float64bits(got.BluetoothBits) != math.Float64bits(want.BluetoothBits) ||
					got.Rounds != want.Rounds || got.A != want.A || got.B != want.B {
					t.Errorf("%s↔%s at %v m: got %+v, fresh braids %+v", a.Name, b.Name, float64(d), *got, *want)
				}
			}
		}
	}
}
