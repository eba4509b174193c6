package field

import (
	"math"
	"testing"

	"braidio/internal/stats"
)

func TestVec2Dist(t *testing.T) {
	if got := (Vec2{0, 0}).Dist(Vec2{3, 4}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestPaperSceneGeometry(t *testing.T) {
	s := PaperScene()
	if s.TX != (Vec2{0.95, 0.5}) || s.RX != (Vec2{1.05, 0.5}) {
		t.Errorf("antenna positions %v %v don't match Fig. 4", s.TX, s.RX)
	}
	if s.RXDiv == nil {
		t.Fatal("paper scene must have a diversity antenna")
	}
	sep := s.RX.Dist(*s.RXDiv)
	if math.Abs(sep-s.Wavelength/8) > 1e-9 {
		t.Errorf("diversity separation = %v, want λ/8 = %v", sep, s.Wavelength/8)
	}
}

func TestSNRFallsWithDistance(t *testing.T) {
	s := PaperScene()
	// Compare two aligned positions (same fractional phase) at different
	// distances: pick points exactly k wavelengths farther round-trip.
	p1 := Vec2{1.0, 1.0}
	p2 := Vec2{1.0, 1.8}
	// Average away the cos θ factor by sampling many nearby points.
	avg := func(c Vec2) float64 {
		sum := 0.0
		const n = 64
		for i := 0; i < n; i++ {
			dy := float64(i) / n * s.Wavelength
			sum += float64(s.SNR(Vec2{c.X, c.Y + dy}))
		}
		return sum / n
	}
	if a1, a2 := avg(p1), avg(p2); a1 <= a2 {
		t.Errorf("mean SNR did not fall with distance: %v at 0.5 m vs %v at 1.3 m", a1, a2)
	}
}

// TestNullsExist reproduces the core of Fig. 4(c): along the Y=0.5 line
// there are positions with dramatically suppressed SNR very close to the
// antennas.
func TestNullsExist(t *testing.T) {
	s := PaperScene()
	line := s.LineSweep(Vec2{0.02, 0.5}, Vec2{2, 0.5}, 4000, false)
	nulls := Nulls(line, 0)
	if len(nulls) == 0 {
		t.Fatal("no phase-cancellation nulls found along the paper's line")
	}
	// The paper observes nulls quite close to the devices (well inside 2 m).
	if nulls[0] > 1.5 {
		t.Errorf("first null at %v m along the line; expected one closer", nulls[0])
	}
}

// TestDiversityLiftsNulls reproduces Fig. 6: without diversity the SNR
// collapses at null points; with a λ/8-spaced second antenna the worst
// case stays usable (≥5 dB in the paper's 0.3–2 m sweep).
func TestDiversityLiftsNulls(t *testing.T) {
	s := PaperScene()
	center := Vec2{1.0, 0.5}
	// Sweep the tag outward from 0.3 to 2 m above the antennas.
	start := Vec2{center.X, center.Y + 0.3}
	end := Vec2{center.X, center.Y + 2.0}
	without := s.LineSweep(start, end, 3000, false)
	with := s.LineSweep(start, end, 3000, true)

	worstWithout := WorstCase(without)
	worstWith := WorstCase(with)
	if worstWithout > 1 {
		t.Errorf("worst case without diversity = %v dB; expected a collapse below ~0 dB", worstWithout)
	}
	if worstWith < 4 {
		t.Errorf("worst case with diversity = %v dB; expected ≥ ~5 dB", worstWith)
	}
	if worstWith-worstWithout < 5 {
		t.Errorf("diversity lifted worst case by only %v dB", worstWith-worstWithout)
	}
}

func TestDiversityNeverHurts(t *testing.T) {
	s := PaperScene()
	for i := 0; i < 500; i++ {
		p := Vec2{0.1 + float64(i%25)*0.08, 0.1 + float64(i/25)*0.09}
		if s.SNRDiversity(p) < s.SNR(p) {
			t.Fatalf("diversity SNR below single-antenna SNR at %v", p)
		}
	}
}

func TestSNRDiversityWithoutAltEqualsSNR(t *testing.T) {
	s := PaperScene()
	s.RXDiv = nil
	p := Vec2{0.5, 1.2}
	if s.SNRDiversity(p) != s.SNR(p) {
		t.Error("diversity without a second antenna must equal single-antenna SNR")
	}
}

func TestFieldMapShape(t *testing.T) {
	s := PaperScene()
	m := s.FieldMap(0, 0, 2, 2, 41, 41)
	if m.NX != 41 || m.NY != 41 || len(m.SNR) != 41 || len(m.SNR[0]) != 41 {
		t.Fatalf("map dimensions wrong: %dx%d", m.NX, m.NY)
	}
	min, max := m.MinMax()
	if max <= min {
		t.Errorf("MinMax = %v..%v", min, max)
	}
	// The map must show a large dynamic range: bright near the antennas,
	// deep nulls elsewhere (the dark arcs of Fig. 4(b)).
	if float64(max-min) < 40 {
		t.Errorf("dynamic range = %v dB, want > 40", max-min)
	}
}

func TestFieldMapPanicsOnDegenerateGrid(t *testing.T) {
	s := PaperScene()
	defer func() {
		if recover() == nil {
			t.Error("degenerate grid did not panic")
		}
	}()
	s.FieldMap(0, 0, 2, 2, 1, 10)
}

func TestLineSweepDistanceAxis(t *testing.T) {
	s := PaperScene()
	line := s.LineSweep(Vec2{0, 0.5}, Vec2{2, 0.5}, 101, false)
	if line[0].X != 0 || math.Abs(line[100].X-2) > 1e-12 {
		t.Errorf("sweep X axis runs %v..%v, want 0..2", line[0].X, line[100].X)
	}
	for i := 1; i < len(line); i++ {
		if line[i].X <= line[i-1].X {
			t.Fatal("sweep X axis not strictly increasing")
		}
	}
}

func TestNearFieldClamp(t *testing.T) {
	s := PaperScene()
	// Exactly on the TX antenna: must stay finite.
	v := s.SNR(s.TX)
	if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
		t.Errorf("SNR at antenna position = %v", v)
	}
}

func TestNullsHelper(t *testing.T) {
	s := stats.Series{{X: 0, Y: 10}, {X: 1, Y: -5}, {X: 2, Y: 10}, {X: 3, Y: 3}, {X: 4, Y: 10}}
	nulls := Nulls(s, 0)
	if len(nulls) != 1 || nulls[0] != 1 {
		t.Errorf("Nulls = %v, want [1]", nulls)
	}
	if got := WorstCase(s); got != -5 {
		t.Errorf("WorstCase = %v, want -5", got)
	}
}

// TestFiniteBackgroundMatchesAsymptoteFar: where the tag signal is tiny
// compared to the background, the exact envelope model agrees with the
// paper's cos(θ) asymptote.
func TestFiniteBackgroundMatchesAsymptoteFar(t *testing.T) {
	exact := PaperScene()
	exact.BackgroundRatio = 50
	asym := PaperScene()
	for _, p := range []Vec2{{X: 1.0, Y: 1.7}, {X: 0.4, Y: 1.5}, {X: 1.8, Y: 0.9}} {
		e := float64(exact.SNRAt(p, exact.RX))
		a := float64(asym.SNRAt(p, asym.RX))
		// Skip exact-null points where both are −∞-ish.
		if a < -40 {
			continue
		}
		if math.Abs(e-a) > 1.5 {
			t.Errorf("at %v: exact %v vs asymptote %v dB", p, e, a)
		}
	}
}

// TestFiniteBackgroundSaturatesNear: adjacent to the antennas, the exact
// model's detected amplitude is capped by the background level rather
// than diverging with 1/(d1·d2).
func TestFiniteBackgroundSaturatesNear(t *testing.T) {
	exact := PaperScene()
	exact.BackgroundRatio = 5
	asym := PaperScene()
	near := Vec2{X: 0.96, Y: 0.52} // centimeters from the TX antenna
	e := float64(exact.SNRAt(near, exact.RX))
	a := float64(asym.SNRAt(near, asym.RX))
	if e >= a-3 {
		t.Errorf("exact model did not saturate near the antenna: exact %v vs asymptote %v", e, a)
	}
}

// TestSNRAtDegenerateGeometry: a tag on the TX antenna, on the RX antenna
// or on the diversity antenna stays finite (clamped to the 1 cm near
// field) or −Inf, never NaN or +Inf.
func TestSNRAtDegenerateGeometry(t *testing.T) {
	s := PaperScene()
	for _, p := range []Vec2{s.TX, s.RX, *s.RXDiv} {
		if v := s.SNRAt(p, s.RX); math.IsNaN(float64(v)) || math.IsInf(float64(v), 1) {
			t.Errorf("SNRAt(%v) = %v, want finite or −Inf", p, v)
		}
		if v := s.SNRDiversity(p); math.IsNaN(float64(v)) || math.IsInf(float64(v), 1) {
			t.Errorf("SNRDiversity(%v) = %v, want finite or −Inf", p, v)
		}
	}
}
