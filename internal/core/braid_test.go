package core

import (
	"errors"
	"math"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/phy"
	"braidio/internal/units"
)

func TestScheduleProportions(t *testing.T) {
	links := linksAt(t, 0.3)
	p := []float64{0.5, 0.25, 0.25}
	seq := Schedule(links, p, 16)
	if len(seq) != 16 {
		t.Fatalf("sequence length %d, want 16", len(seq))
	}
	counts := map[phy.Mode]int{}
	for _, m := range seq {
		counts[m]++
	}
	if counts[links[0].Mode] != 8 || counts[links[1].Mode] != 4 || counts[links[2].Mode] != 4 {
		t.Errorf("counts %v, want 8/4/4", counts)
	}
}

func TestScheduleSpreadsEvenly(t *testing.T) {
	links := linksAt(t, 0.3)
	// 50/50 two-mode split must alternate, not burst.
	seq := Schedule(links[1:], []float64{0.5, 0.5}, 8)
	for i := 2; i < len(seq); i++ {
		if seq[i] == seq[i-1] && seq[i-1] == seq[i-2] {
			t.Fatalf("three consecutive %v in a 50/50 schedule: %v", seq[i], seq)
		}
	}
}

func TestSchedulePaperExample(t *testing.T) {
	// §4.2: p = (0.5, 0.25, 0.25) → a repetition like
	// Active-Active-Passive-Backscatter. Check period-4 structure: every
	// window of 4 has 2 active, 1 passive, 1 backscatter.
	links := linksAt(t, 0.3)
	seq := Schedule(links, []float64{0.5, 0.25, 0.25}, 32)
	for w := 0; w < len(seq); w += 4 {
		counts := map[phy.Mode]int{}
		for _, m := range seq[w : w+4] {
			counts[m]++
		}
		if counts[phy.ModeActive] != 2 || counts[phy.ModePassive] != 1 || counts[phy.ModeBackscatter] != 1 {
			t.Fatalf("window %d counts %v, want 2/1/1", w/4, counts)
		}
	}
}

func TestScheduleProportionsProperty(t *testing.T) {
	links := linksAt(t, 0.3)
	for _, pRaw := range [][3]float64{{1, 0, 0}, {0.9, 0.1, 0}, {0.3, 0.3, 0.4}, {0.01, 0.98, 0.01}} {
		p := pRaw[:]
		const window = 1000
		seq := Schedule(links, p, window)
		counts := map[phy.Mode]float64{}
		for _, m := range seq {
			counts[m]++
		}
		for i, l := range links {
			got := counts[l.Mode] / window
			if math.Abs(got-p[i]) > 1.0/window+1e-9 {
				t.Errorf("mode %v share %v, want %v", l.Mode, got, p[i])
			}
		}
	}
}

func TestSchedulePanics(t *testing.T) {
	links := linksAt(t, 0.3)
	for name, f := range map[string]func(){
		"mismatched": func() { Schedule(links, []float64{1}, 4) },
		"window 0":   func() { Schedule(links, []float64{1, 0, 0}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTransitions(t *testing.T) {
	seq := []phy.Mode{phy.ModeActive, phy.ModeActive, phy.ModePassive, phy.ModeBackscatter, phy.ModeBackscatter}
	if got := Transitions(seq, phy.ModeActive); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
	if got := Transitions(seq, phy.ModePassive); got != 3 {
		t.Errorf("transitions with different prev = %d, want 3", got)
	}
	if got := Transitions(nil, phy.ModeActive); got != 0 {
		t.Errorf("empty sequence transitions = %d", got)
	}
}

func TestSwitchEnergyOf(t *testing.T) {
	seq := []phy.Mode{phy.ModeBackscatter, phy.ModePassive}
	rates := map[phy.Mode]units.BitRate{phy.ModeBackscatter: units.Rate10k, phy.ModePassive: units.Rate1M}
	tx, rx := SwitchEnergyOf(seq, phy.ModeActive, rates)
	wantTX := float64(phy.SwitchOverhead[phy.ModeBackscatter].TX + phy.SwitchOverhead[phy.ModePassive].TX)
	wantRX := float64(phy.SwitchOverhead[phy.ModeBackscatter].RX + phy.SwitchOverhead[phy.ModePassive].RX)
	if tx != wantTX || rx != wantRX {
		t.Errorf("switch energies %v/%v, want %v/%v", tx, rx, wantTX, wantRX)
	}
	// At 1 Mbps the backscatter handshake is 100× faster and cheaper.
	rates[phy.ModeBackscatter] = units.Rate1M
	txFast, _ := SwitchEnergyOf(seq, phy.ModeActive, rates)
	wantFast := float64(phy.SwitchOverhead[phy.ModeBackscatter].TX)/100 + float64(phy.SwitchOverhead[phy.ModePassive].TX)
	if math.Abs(txFast-wantFast) > 1e-12 {
		t.Errorf("rate-scaled switch energy %v, want %v", txFast, wantFast)
	}
	// Unknown rate falls back to the worst case.
	txUnknown, _ := SwitchEnergyOf([]phy.Mode{phy.ModeBackscatter}, phy.ModeActive, nil)
	if txUnknown != float64(phy.SwitchOverhead[phy.ModeBackscatter].TX) {
		t.Errorf("unknown-rate switch energy %v, want worst case", txUnknown)
	}
}

func TestBraidRunConservesEnergy(t *testing.T) {
	b := NewBraid(phy.NewModel(), 0.3)
	b1 := energy.NewBattery(0.001) // 3.6 J each — a quick run
	b2 := energy.NewBattery(0.001)
	res, err := b.Run(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits <= 0 {
		t.Fatal("no bits delivered")
	}
	// Drains recorded must match the batteries' accounting.
	if math.Abs(float64(res.Drain1-b1.Drained())) > 1e-9 {
		t.Errorf("drain1 %v vs battery %v", res.Drain1, b1.Drained())
	}
	if math.Abs(float64(res.Drain2-b2.Drained())) > 1e-9 {
		t.Errorf("drain2 %v vs battery %v", res.Drain2, b2.Drained())
	}
	// At least one battery is (essentially) dead.
	if b1.Fraction() > 0.01 && b2.Fraction() > 0.01 {
		t.Errorf("run stopped with both batteries alive: %v / %v", b1.Fraction(), b2.Fraction())
	}
	// Mode bits sum to the total.
	var sum float64
	for _, v := range res.ModeBits {
		sum += v
	}
	if math.Abs(sum-res.Bits) > 1 {
		t.Errorf("mode bits sum %v vs total %v", sum, res.Bits)
	}
	if res.Duration <= 0 || res.Epochs <= 0 {
		t.Errorf("duration %v, epochs %d", res.Duration, res.Epochs)
	}
}

// TestBraidMatchesAnalyticBits: with switch overheads disabled, the braid
// engine's delivered bits must match the one-shot optimizer's projection
// (the allocation is scale-free, so re-computation doesn't change it).
func TestBraidMatchesAnalyticBits(t *testing.T) {
	m := phy.NewModel()
	links := m.Characterize(0.3)
	alloc, err := Optimize(links, units.WattHour(0.01).Joules(), units.WattHour(0.002).Joules())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBraid(m, 0.3)
	b.IncludeSwitchOverhead = false
	res, err := b.RunFresh(0.01, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bits-alloc.Bits)/alloc.Bits > 0.02 {
		t.Errorf("braid delivered %v bits, analytic projection %v", res.Bits, alloc.Bits)
	}
}

// TestBraidPowerProportional: the drains divide in proportion to the
// starting budgets (within the interior regime).
func TestBraidPowerProportional(t *testing.T) {
	b := NewBraid(phy.NewModel(), 0.3)
	for _, ratio := range []float64{1, 5, 50} {
		b1 := energy.NewBattery(units.WattHour(0.001 * ratio))
		b2 := energy.NewBattery(0.001)
		res, err := b.Run(b1, b2)
		if err != nil {
			t.Fatal(err)
		}
		score := energy.Proportionality(res.Drain1, res.Drain2,
			units.WattHour(0.001*ratio).Joules(), units.WattHour(0.001).Joules())
		if score > 0.02 {
			t.Errorf("ratio %v: proportionality deviation %v (log scale)", ratio, score)
		}
	}
}

// TestSwitchOverheadNegligible reproduces the Table 5 conclusion: the
// braid delivers essentially the same bits with overheads on.
func TestSwitchOverheadNegligible(t *testing.T) {
	m := phy.NewModel()
	with := NewBraid(m, 0.3)
	without := NewBraid(m, 0.3)
	without.IncludeSwitchOverhead = false
	r1, err := with.RunFresh(0.002, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := without.RunFresh(0.002, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Switches == 0 {
		t.Fatal("no switches recorded with braiding active")
	}
	if loss := 1 - r1.Bits/r2.Bits; loss > 0.02 {
		t.Errorf("switch overhead cost %v of throughput, want negligible", loss)
	}
}

func TestBraidOutOfRange(t *testing.T) {
	// Even the active link dies out kilometers away in free space.
	b := NewBraid(phy.NewModel(), 5000)
	_, err := b.RunFresh(1, 1)
	if !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
}

func TestBraidValidation(t *testing.T) {
	b := NewBraid(phy.NewModel(), 0.3)
	if _, err := b.Run(nil, energy.NewBattery(1)); err == nil {
		t.Error("nil battery should error")
	}
}

// TestBraidModeMixMatchesAllocation: the realized mode bit shares track
// the optimizer's fractions.
func TestBraidModeMixMatchesAllocation(t *testing.T) {
	m := phy.NewModel()
	links := m.Characterize(0.3)
	alloc, err := Optimize(links, units.WattHour(0.003).Joules(), units.WattHour(0.001).Joules())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBraid(m, 0.3)
	res, err := b.RunFresh(0.003, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range phy.Modes {
		want := alloc.Fraction(mode)
		got := res.ModeFraction(mode)
		if math.Abs(got-want) > 0.07 {
			t.Errorf("mode %v: realized %v vs allocated %v", mode, got, want)
		}
	}
}

// TestBraidRegimeB: at 3 m the braid still works using active+passive.
func TestBraidRegimeB(t *testing.T) {
	b := NewBraid(phy.NewModel(), 3)
	res, err := b.RunFresh(0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeBits[phy.ModeBackscatter] != 0 {
		t.Error("backscatter bits at 3 m")
	}
	if res.Bits <= 0 {
		t.Error("no bits in regime B")
	}
}

func BenchmarkBraidRun(b *testing.B) {
	m := phy.NewModel()
	for i := 0; i < b.N; i++ {
		br := NewBraid(m, 0.3)
		if _, err := br.RunFresh(0.01, 0.001); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	links := phy.NewModel().Characterize(0.3)
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(links, 7200, 3600); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEq1(b *testing.B) {
	links := phy.NewModel().Characterize(0.3)
	for i := 0; i < b.N; i++ {
		if _, err := SolveEq1(links, 7200, 3600); err != nil {
			b.Fatal(err)
		}
	}
}
