package iq

import (
	"math"
	"math/cmplx"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromPolarRoundTrip(t *testing.T) {
	p := FromPolar(2, math.Pi/3)
	if !approx(p.Mag(), 2, 1e-12) {
		t.Errorf("Mag = %v, want 2", p.Mag())
	}
	if ph := cmplx.Phase(complex128(p)); !approx(ph, math.Pi/3, 1e-12) {
		t.Errorf("phase = %v, want π/3", ph)
	}
}

func TestAddOpposes(t *testing.T) {
	p := FromPolar(1, 0)
	q := FromPolar(1, math.Pi)
	if got := p.Add(q).Mag(); !approx(got, 0, 1e-12) {
		t.Errorf("destructive sum magnitude = %v, want 0", got)
	}
}

func TestScale(t *testing.T) {
	p := FromPolar(3, 1).Scale(2)
	if ph := cmplx.Phase(complex128(p)); !approx(p.Mag(), 6, 1e-12) || !approx(ph, 1, 1e-12) {
		t.Errorf("Scale changed phase or wrong magnitude: %v @ %v", p.Mag(), ph)
	}
}

// TestEnvelopeDeltaOrthogonalNull reproduces the geometry of Fig. 4(a):
// when the tag's differential vector is orthogonal to the background, the
// envelope change collapses; when aligned, it is maximal.
func TestEnvelopeDeltaOrthogonalNull(t *testing.T) {
	bg := FromPolar(10, 0) // strong self-interference along I
	// Tag states symmetric around zero with differential 2·0.1.
	aligned0, aligned1 := FromPolar(0.1, math.Pi), FromPolar(0.1, 0)
	ortho0, ortho1 := FromPolar(0.1, -math.Pi/2), FromPolar(0.1, math.Pi/2)

	da := EnvelopeDelta(bg, aligned0, aligned1)
	do := EnvelopeDelta(bg, ortho0, ortho1)
	if !approx(da, 0.2, 1e-9) {
		t.Errorf("aligned envelope delta = %v, want 0.2", da)
	}
	// Orthogonal: |bg ± j0.1| are equal ⇒ delta ≈ 0.
	if do > 1e-9 {
		t.Errorf("orthogonal envelope delta = %v, want ~0", do)
	}
}

// TestEnvelopeDeltaCosineLaw checks the paper's A = 2cos(θ)|Vtx0| relation
// for a strong background: the detectable amplitude scales with cos θ.
func TestEnvelopeDeltaCosineLaw(t *testing.T) {
	bg := FromPolar(100, 0)
	const amp = 0.05
	for _, theta := range []float64{0, math.Pi / 6, math.Pi / 4, math.Pi / 3, 0.47 * math.Pi} {
		s1 := FromPolar(amp, theta)
		s0 := s1.Scale(-1)
		got := EnvelopeDelta(bg, s0, s1)
		want := 2 * amp * math.Abs(math.Cos(theta))
		if !approx(got, want, 0.02*want+1e-6) {
			t.Errorf("θ=%v: delta = %v, want ≈ %v", theta, got, want)
		}
	}
}
