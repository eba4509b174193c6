package chargepump

import (
	"math"
	"testing"

	"braidio/internal/circuit"
)

// circuitResultStub is a minimal result for validation tests.
var circuitResultStub = circuit.Result{Time: []float64{0}, V: [][]float64{{0}}}

// TestFig3Reproduction drives the single-stage pump with the paper's 1 V
// sine and checks the three traces of Fig. 3(b): input swings ±1 V, the
// node between the diodes swings roughly 0..2 V, and the output settles
// near 2 V DC.
func TestFig3Reproduction(t *testing.T) {
	p := Default()
	res, a, b, c, err := p.Transient(1.0, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Input: ±1 V sine.
	var inMin, inMax float64
	for _, v := range res.Voltage(a) {
		inMin = math.Min(inMin, v)
		inMax = math.Max(inMax, v)
	}
	if math.Abs(inMax-1) > 0.01 || math.Abs(inMin+1) > 0.01 {
		t.Errorf("input swings %v..%v, want ±1", inMin, inMax)
	}
	// Between diodes: clamped sine, roughly -0.2..2 V by the end.
	wave := res.Voltage(b)
	tail := wave[len(wave)*3/4:]
	var bMin, bMax = math.Inf(1), math.Inf(-1)
	for _, v := range tail {
		bMin = math.Min(bMin, v)
		bMax = math.Max(bMax, v)
	}
	if bMin < -0.5 {
		t.Errorf("pump node dips to %v, the clamp diode is not clamping", bMin)
	}
	if bMax < 1.4 || bMax > 2.2 {
		t.Errorf("pump node peak %v, want ≈1.6–2", bMax)
	}
	// Output: near 2 V minus two Schottky drops, monotone-ish rise.
	out := res.Final(c)
	if out < 1.5 || out > 2.0 {
		t.Errorf("DC output = %v V, want ≈1.6–1.9 (2 V minus diode drops)", out)
	}
	// Ripple, the output's peak-to-peak swing over the final quarter,
	// must be small relative to the DC value.
	outWave := res.Voltage(c)
	outMin, outMax := math.Inf(1), math.Inf(-1)
	for _, v := range outWave[len(outWave)*3/4:] {
		outMin = math.Min(outMin, v)
		outMax = math.Max(outMax, v)
	}
	if r := outMax - outMin; r > 0.1*out {
		t.Errorf("output ripple %v too large vs DC %v", r, out)
	}
}

// TestTransientMatchesAnalytic cross-checks the two views: the transient
// result should equal the analytic 2N(Va − Vd) once Vd is set to the
// Schottky's effective drop.
func TestTransientMatchesAnalytic(t *testing.T) {
	p := Default()
	res, _, _, c, err := p.Transient(1.0, 1e6, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Final(c)
	// Infer the effective per-diode drop from the transient and check it
	// is Schottky-like (0.05–0.25 V), then confirm the analytic model
	// with that drop agrees.
	drop := (2 - got) / 2
	if drop < 0.03 || drop > 0.3 {
		t.Fatalf("effective diode drop %v V is not Schottky-like", drop)
	}
	p.DiodeDrop = drop
	if want := p.OutputDC(1.0); math.Abs(got-want) > 0.05 {
		t.Errorf("transient %v vs analytic %v", got, want)
	}
}

func TestOutputDCIdealDiode(t *testing.T) {
	p := Default()
	p.DiodeDrop = 0
	if got := p.OutputDC(1); got != 2 {
		t.Errorf("ideal single-stage doubler = %v, want 2", got)
	}
	p.Stages = 3
	if got := p.OutputDC(1); got != 6 {
		t.Errorf("ideal 3-stage = %v, want 6 (2N boost)", got)
	}
}

func TestOutputDCClampsAtZero(t *testing.T) {
	p := Default()
	if got := p.OutputDC(0.05); got != 0 {
		t.Errorf("below-threshold output = %v, want 0", got)
	}
}

// TestBoostVsStages verifies the paper's "2N times" claim: output grows
// linearly in stage count for a fixed input.
func TestBoostVsStages(t *testing.T) {
	for n := 1; n <= 5; n++ {
		p := Default()
		p.Stages = n
		want := 2 * float64(n) * (1 - p.DiodeDrop)
		if got := p.OutputDC(1); math.Abs(got-want) > 1e-12 {
			t.Errorf("N=%d: output %v, want %v", n, got, want)
		}
	}
}

// TestOutputImpedanceGrowsWithStages verifies the sensitivity trade-off
// §3.2 describes: more boost means higher output impedance, which is why
// the instrumentation amplifier must be high-impedance.
func TestOutputImpedanceGrowsWithStages(t *testing.T) {
	p := Default()
	z1 := p.OutputImpedance(1e6)
	p.Stages = 4
	z4 := p.OutputImpedance(1e6)
	if z4 <= z1 {
		t.Errorf("impedance did not grow with stages: %v vs %v", z1, z4)
	}
	if math.Abs(z4/z1-4) > 1e-9 {
		t.Errorf("impedance ratio %v, want 4", z4/z1)
	}
}

func TestLoadedOutputSags(t *testing.T) {
	p := Default()
	open := p.LoadedOutput(1, 1e6)
	p.LoadResistance = p.OutputImpedance(1e6) // matched load: half voltage
	loaded := p.LoadedOutput(1, 1e6)
	if math.Abs(loaded-open/2) > 0.01*open {
		t.Errorf("matched-load output %v, want half of %v", loaded, open)
	}
	p.LoadResistance = math.Inf(1)
	if got := p.LoadedOutput(1, 1e6); got != p.OutputDC(1) {
		t.Errorf("open-circuit LoadedOutput %v != OutputDC %v", got, p.OutputDC(1))
	}
}

// TestMultiStageTransient runs a 2-stage ladder and confirms it out-boosts
// the single stage.
func TestMultiStageTransient(t *testing.T) {
	p1 := Default()
	res1, _, _, c1, err := p1.Transient(1, 1e6, 15)
	if err != nil {
		t.Fatal(err)
	}
	p2 := Default()
	p2.Stages = 2
	res2, _, _, c2, err := p2.Transient(1, 1e6, 30)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := res1.Final(c1), res2.Final(c2)
	if v2 <= v1*1.3 {
		t.Errorf("2-stage output %v does not meaningfully exceed 1-stage %v", v2, v1)
	}
}

func TestSettlingTime(t *testing.T) {
	p := Default()
	res, _, _, c, err := p.Transient(1, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := SettlingTime(res, c, 0.9)
	if !ok {
		t.Fatal("output never settled")
	}
	if ts <= 0 || ts > 10e-6 {
		t.Errorf("settling time %v s out of range", ts)
	}
	// Smaller capacitors settle no slower (paper: reduced Cs/Cp to
	// improve bitrate).
	fast := Default()
	fast.StageCapacitance = 20e-12
	resF, _, _, cF, err := fast.Transient(1, 1e6, 10)
	if err != nil {
		t.Fatal(err)
	}
	tsF, ok := SettlingTime(resF, cF, 0.9)
	if !ok {
		t.Fatal("fast pump never settled")
	}
	if tsF > ts+1e-9 {
		t.Errorf("smaller caps settled slower: %v vs %v", tsF, ts)
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero stages":   func() { (Pump{Stages: 0, StageCapacitance: 1e-12}).OutputDC(1) },
		"zero cap":      func() { (Pump{Stages: 1}).OutputDC(1) },
		"neg drop":      func() { (Pump{Stages: 1, StageCapacitance: 1e-12, DiodeDrop: -1}).OutputDC(1) },
		"neg amplitude": func() { Default().OutputDC(-1) },
		"zero freq":     func() { Default().OutputImpedance(0) },
		"bad fraction":  func() { SettlingTime(&circuitResultStub, 0, 1.5) },
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
	if _, _, _, _, err := Default().Transient(-1, 1e6, 10); err == nil {
		t.Error("negative amplitude should error")
	}
}
