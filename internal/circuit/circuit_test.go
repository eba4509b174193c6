package circuit

import (
	"math"
	"testing"
)

func TestVoltageDivider(t *testing.T) {
	var c Circuit
	in := c.Node() // node 1
	if in != 1 {
		t.Fatalf("first allocated node = %d, want 1", in)
	}
	mid := c.Node()
	c.VSource(in, 0, func(float64) float64 { return 10 })
	c.Resistor(in, mid, 1000)
	c.Resistor(mid, 0, 1000)
	res, err := c.Transient(1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final(mid); math.Abs(got-5) > 1e-6 {
		t.Errorf("divider mid = %v V, want 5", got)
	}
	if got := res.Final(in); math.Abs(got-10) > 1e-9 {
		t.Errorf("source node = %v V, want 10", got)
	}
}

func TestRCCharging(t *testing.T) {
	var c Circuit
	in := c.Node()
	out := c.Node()
	const r, cap = 1000.0, 1e-6 // τ = 1 ms
	c.VSource(in, 0, func(float64) float64 { return 1 })
	c.Resistor(in, out, r)
	c.Capacitor(out, 0, cap)
	res, err := c.Transient(1e-5, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	// After 1τ the capacitor is at 1−e⁻¹ ≈ 0.632.
	idx := len(res.Time) / 5
	if got := res.V[out][idx]; math.Abs(got-0.632) > 0.01 {
		t.Errorf("v(τ) = %v, want ≈0.632", got)
	}
	// After 5τ it is essentially full.
	if got := res.Final(out); math.Abs(got-1) > 0.01 {
		t.Errorf("v(5τ) = %v, want ≈1", got)
	}
}

func TestDiodeRectifies(t *testing.T) {
	var c Circuit
	in := c.Node()
	out := c.Node()
	c.Sine(in, 0, 1, 1000)
	c.SchottkyDiode(in, out)
	c.Capacitor(out, 0, 1e-6)
	c.Resistor(out, 0, 1e6)
	res, err := c.Transient(1e-6, 10e-3)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final(out)
	// A half-wave rectifier with a Schottky should hold close to the
	// peak minus a small drop.
	if final < 0.7 || final > 1.0 {
		t.Errorf("rectified output = %v V, want ≈0.8–1.0", final)
	}
	// The output must never go significantly negative.
	for i, v := range res.V[out] {
		if v < -0.05 {
			t.Fatalf("output negative (%v) at step %d", v, i)
		}
	}
}

func TestDiodeBlocksReverse(t *testing.T) {
	var c Circuit
	in := c.Node()
	out := c.Node()
	c.VSource(in, 0, func(float64) float64 { return -5 })
	c.SchottkyDiode(in, out)
	c.Resistor(out, 0, 1000)
	res, err := c.Transient(1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse-biased: almost no current, output stays near 0.
	if got := math.Abs(res.Final(out)); got > 0.01 {
		t.Errorf("reverse leakage output = %v V, want ≈0", got)
	}
}

func TestFloatingNodeFails(t *testing.T) {
	var c Circuit
	a := c.Node()
	b := c.Node()
	_ = b
	c.VSource(a, 0, func(float64) float64 { return 1 })
	// Node b is entirely disconnected → singular matrix.
	if _, err := c.Transient(1e-6, 1e-5); err == nil {
		t.Error("floating node should fail")
	}
}

func TestInvalidGrid(t *testing.T) {
	var c Circuit
	a := c.Node()
	c.VSource(a, 0, func(float64) float64 { return 1 })
	if _, err := c.Transient(0, 1); err == nil {
		t.Error("dt=0 should fail")
	}
	if _, err := c.Transient(1, 0.5); err == nil {
		t.Error("tStop<dt should fail")
	}
}

func TestEmptyCircuit(t *testing.T) {
	var c Circuit
	if _, err := c.Transient(1e-6, 1e-5); err == nil {
		t.Error("empty circuit should fail")
	}
}

func TestComponentValidation(t *testing.T) {
	var c Circuit
	for name, f := range map[string]func(){
		"zero R":        func() { c.Resistor(0, 1, 0) },
		"zero C":        func() { c.Capacitor(0, 1, 0) },
		"bad diode":     func() { c.Diode(0, 1, 0, 0.025) },
		"nil source":    func() { c.VSource(0, 1, nil) },
		"negative node": func() { c.Resistor(-1, 0, 10) },
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

func TestResultAccessors(t *testing.T) {
	var c Circuit
	in := c.Node()
	c.VSource(in, 0, func(float64) float64 { return 2 })
	c.Resistor(in, 0, 100)
	res, err := c.Transient(1e-6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Voltage(in)) != len(res.Time) {
		t.Error("waveform and time axis lengths differ")
	}
	if res.Final(in) != res.Voltage(in)[len(res.Time)-1] {
		t.Error("Final disagrees with Voltage")
	}
}

func BenchmarkTransientRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var c Circuit
		in := c.Node()
		out := c.Node()
		c.Sine(in, 0, 1, 1000)
		c.Resistor(in, out, 1000)
		c.Capacitor(out, 0, 1e-6)
		if _, err := c.Transient(1e-6, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
