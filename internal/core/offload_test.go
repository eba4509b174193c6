package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"braidio/internal/phy"
	"braidio/internal/units"
)

func linksAt(t testing.TB, d units.Meter) []phy.ModeLink {
	t.Helper()
	links := phy.NewModel().Characterize(d)
	if len(links) == 0 {
		t.Fatalf("no links at %v m", d)
	}
	return links
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

func TestOptimizeEqualEnergyUsesBCMix(t *testing.T) {
	links := linksAt(t, 0.3)
	alloc, err := Optimize(links, 3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	// Equal budgets: the optimum braids passive and backscatter roughly
	// half-and-half and never uses active (line BC of Fig. 9).
	if f := alloc.Fraction(phy.ModeActive); f > 1e-9 {
		t.Errorf("active fraction = %v, want 0", f)
	}
	pas, bs := alloc.Fraction(phy.ModePassive), alloc.Fraction(phy.ModeBackscatter)
	// The exact split (≈0.43/0.57) balances the passive link's duty
	// overhead against backscatter's receiver cost.
	if pas < 0.35 || pas > 0.5 || bs < 0.5 || bs > 0.65 {
		t.Errorf("fractions pas=%v bs=%v, want ≈0.43/0.57", pas, bs)
	}
	// The mixture is power-proportional: TX and RX per-bit costs match
	// the 1:1 budget ratio.
	if !approx(float64(alloc.TX), float64(alloc.RX), 1e-6) {
		t.Errorf("TX/RX costs %v/%v not balanced for 1:1 budgets", alloc.TX, alloc.RX)
	}
}

func TestOptimizePowerProportionalAcrossRatios(t *testing.T) {
	links := linksAt(t, 0.3)
	for _, ratio := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
		alloc, err := Optimize(links, units.Joule(3600*ratio), 3600)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(alloc.TX) / float64(alloc.RX)
		// Within the achievable span (1/2546 .. 3546) the consumption
		// ratio must match the budget ratio exactly.
		if ratio >= 1.0/2000 && ratio <= 2000 {
			if !approx(got, ratio, 1e-6) {
				t.Errorf("ratio %v: consumption ratio = %v", ratio, got)
			}
		}
		sum := 0.0
		for _, p := range alloc.P {
			if p < -1e-12 {
				t.Errorf("negative fraction %v", p)
			}
			sum += p
		}
		if !approx(sum, 1, 1e-9) {
			t.Errorf("fractions sum to %v", sum)
		}
	}
}

func TestOptimizeClampsAtExtremes(t *testing.T) {
	links := linksAt(t, 0.3)
	// Battery ratio way beyond the 2546:1 passive span: the rich
	// transmitter carries the carrier and the receiver sips — pure
	// passive is the bit-maximizing clamp.
	alloc, err := Optimize(links, 3600*1e6, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if f := alloc.Fraction(phy.ModePassive); !approx(f, 1, 1e-9) {
		t.Errorf("extreme TX-rich: passive fraction = %v, want 1", f)
	}
	// Opposite extreme — a tiny transmitter feeding a rich receiver —
	// is the paper's headline backscatter case.
	alloc, err = Optimize(links, 3600, 3600*1e6)
	if err != nil {
		t.Fatal(err)
	}
	if f := alloc.Fraction(phy.ModeBackscatter); !approx(f, 1, 1e-9) {
		t.Errorf("extreme RX-rich: backscatter fraction = %v, want 1", f)
	}
}

// TestOptimizeAgreesWithEq1 cross-checks the direct optimizer against the
// paper's LP formulation wherever the LP is feasible.
func TestOptimizeAgreesWithEq1(t *testing.T) {
	links := linksAt(t, 0.3)
	for _, ratio := range []float64{0.005, 0.05, 0.7, 1, 3, 40, 800} {
		e1 := units.Joule(1000 * ratio)
		e2 := units.Joule(1000)
		direct, err := Optimize(links, e1, e2)
		if err != nil {
			t.Fatal(err)
		}
		viaLP, err := SolveEq1(links, e1, e2)
		if err != nil {
			t.Fatalf("ratio %v: LP infeasible unexpectedly: %v", ratio, err)
		}
		if !approx(direct.Bits, viaLP.Bits, 1e-6) {
			t.Errorf("ratio %v: direct %v bits vs LP %v bits", ratio, direct.Bits, viaLP.Bits)
		}
	}
}

func TestEq1InfeasibleBeyondSpan(t *testing.T) {
	links := linksAt(t, 0.3)
	_, err := SolveEq1(links, 1e12, 1)
	if err == nil {
		t.Fatal("Eq. 1 should be infeasible beyond the achievable ratio span")
	}
}

// TestOptimizeBeatsSingleModes: braiding never delivers fewer bits than
// the best pure mode, and strictly more at moderate asymmetry (the
// Fig. 16 "up to 78% improvement" effect).
func TestOptimizeBeatsSingleModes(t *testing.T) {
	links := linksAt(t, 0.3)
	f := func(rawRatio uint16) bool {
		ratio := math.Pow(10, float64(rawRatio)/65535*8-4) // 1e-4 .. 1e4
		e1 := units.Joule(3600 * ratio)
		e2 := units.Joule(3600)
		braided, err := Optimize(links, e1, e2)
		if err != nil {
			return false
		}
		single, err := BestSingleMode(links, e1, e2)
		if err != nil {
			return false
		}
		return braided.Bits >= single.Bits*(1-1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Moderate asymmetry: strict improvement.
	braided, _ := Optimize(links, 3600*3, 3600)
	single, _ := BestSingleMode(links, 3600*3, 3600)
	if braided.Bits <= single.Bits*1.05 {
		t.Errorf("braiding gains only %v× at 3:1", braided.Bits/single.Bits)
	}
}

// TestFig16DiagonalGain pins the equal-energy braided-vs-best-mode gain
// at ≈1.43 (the diagonal of Fig. 16).
func TestFig16DiagonalGain(t *testing.T) {
	links := linksAt(t, 0.3)
	braided, err := Optimize(links, 3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	single, err := BestSingleMode(links, 3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	gain := braided.Bits / single.Bits
	if !approx(gain, 1.43, 0.02) {
		t.Errorf("equal-energy gain vs best mode = %v, want ≈1.43", gain)
	}
	// And the best single mode at 1:1 is the active link.
	if single.Dominant() != phy.ModeActive {
		t.Errorf("best single mode at 1:1 = %v, want active", single.Dominant())
	}
}

func TestSingleMode(t *testing.T) {
	links := linksAt(t, 0.3)
	a, err := SingleMode(links, phy.ModePassive, 3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if f := a.Fraction(phy.ModePassive); f != 1 {
		t.Errorf("passive fraction = %v, want 1", f)
	}
	if _, err := SingleMode(links[:1], phy.ModeBackscatter, 1, 1); err == nil {
		t.Error("requesting an absent mode should error")
	}
}

// TestValidation pins bad inputs as errors. NaN budgets and costs are
// among them: NaN fails every ordered comparison, so a `<= 0` check
// lets it through, and past validation a NaN budget makes no candidate
// win and the enumeration would index the fraction row at -1.
func TestValidation(t *testing.T) {
	links := linksAt(t, 0.3)
	if _, err := Optimize(nil, 1, 1); !errors.Is(err, ErrNoLinks) {
		t.Errorf("no links: %v", err)
	}
	nan := math.NaN()
	for _, b := range [][2]float64{{0, 1}, {nan, 1}, {1, nan}, {nan, nan}} {
		if _, err := Optimize(links, units.Joule(b[0]), units.Joule(b[1])); err == nil {
			t.Errorf("budgets %v/%v: want an error", b[0], b[1])
		}
	}
	for _, l := range []phy.ModeLink{
		{Mode: phy.ModeActive, T: units.JoulesPerBit(math.Inf(1)), R: 1},
		{Mode: phy.ModeActive, T: units.JoulesPerBit(nan), R: 1},
		{Mode: phy.ModeActive, T: 1, R: units.JoulesPerBit(nan)},
	} {
		if _, err := Optimize([]phy.ModeLink{l}, 1, 1); err == nil {
			t.Errorf("link costs %v/%v: want an error", l.T, l.R)
		}
	}
}

func TestAllocationAccessors(t *testing.T) {
	links := linksAt(t, 0.3)
	alloc, err := Optimize(links, 3600, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Dominant() != phy.ModeBackscatter {
		t.Errorf("dominant mode = %v, want backscatter for RX-rich budgets", alloc.Dominant())
	}
	if alloc.Fraction(phy.Mode(9)) != 0 {
		t.Error("unknown mode fraction should be 0")
	}
}

// TestRegimeBAllocations: beyond backscatter range the asymmetry can only
// favor the receiver (§6.2: "the nature of asymmetry that is supported
// after 2.6m favors the receiver rather than transmitter").
func TestRegimeBAllocations(t *testing.T) {
	links := linksAt(t, 3)
	// RX-rich: passive mode still gives the receiver a huge efficiency
	// edge.
	alloc, err := Optimize(links, 3600*100, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Fraction(phy.ModePassive) < 0.9 {
		t.Errorf("passive fraction at 3 m TX-rich = %v, want ≈1", alloc.Fraction(phy.ModePassive))
	}
	// TX-rich beyond the active/passive span: clamped, but no
	// backscatter available.
	alloc, err = Optimize(links, 3600, 3600*1e6)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Fraction(phy.ModeBackscatter) != 0 {
		t.Error("backscatter must be unavailable at 3 m")
	}
}
