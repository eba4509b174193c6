package iq

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
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

func TestFromPower(t *testing.T) {
	p := FromPower(4, 0)
	if !approx(p.Power(), 4, 1e-12) {
		t.Errorf("Power = %v, want 4", p.Power())
	}
	if !approx(p.Mag(), 2, 1e-12) {
		t.Errorf("Mag = %v, want 2", p.Mag())
	}
	defer func() {
		if recover() == nil {
			t.Error("FromPower(-1, 0) did not panic")
		}
	}()
	FromPower(-1, 0)
}

func TestIQComponents(t *testing.T) {
	p := FromPolar(1, math.Pi/2)
	if !approx(p.I(), 0, 1e-12) || !approx(p.Q(), 1, 1e-12) {
		t.Errorf("I/Q = %v/%v, want 0/1", p.I(), p.Q())
	}
}

func TestRotatePreservesMagnitude(t *testing.T) {
	f := func(mag, phase, rot float64) bool {
		m := math.Abs(math.Mod(mag, 1e6))
		p := FromPolar(m, math.Mod(phase, math.Pi))
		q := p.Rotate(math.Mod(rot, 10*math.Pi))
		return approx(q.Mag(), m, 1e-6*(1+m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func TestPathPhase(t *testing.T) {
	// Integer wavelengths come back to zero phase.
	if got := PathPhase(3*0.3277, 0.3277); !approx(got, 0, 1e-9) {
		t.Errorf("3λ path phase = %v, want 0", got)
	}
	// Half wavelength is π.
	if got := PathPhase(0.3277/2, 0.3277); !approx(got, math.Pi, 1e-9) {
		t.Errorf("λ/2 path phase = %v, want π", got)
	}
}

func TestPathPhaseRange(t *testing.T) {
	f := func(d float64) bool {
		dist := math.Abs(math.Mod(d, 1000))
		ph := PathPhase(dist, 0.3277)
		return ph >= 0 && ph < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathPhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PathPhase with zero wavelength did not panic")
		}
	}()
	PathPhase(1, 0)
}
