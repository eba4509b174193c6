// Package circuit is a small nodal transient circuit simulator — just
// enough SPICE to reproduce the RF charge pump of Fig. 3 from first
// principles.
//
// It implements modified nodal analysis with backward-Euler companion
// models for capacitors and Newton-Raphson iteration for the exponential
// diode. Node 0 is ground. Voltage sources get one auxiliary current
// variable each, as in standard MNA.
package circuit

import (
	"errors"
	"fmt"
	"math"
)

// Circuit is a netlist under construction. The zero value is an empty
// circuit with only the ground node.
type Circuit struct {
	nodes int // highest node index + 1 (including ground)
	rs    []resistor
	cs    []capacitor
	ds    []diode
	vs    []vsource
}

type resistor struct {
	a, b int
	r    float64
}

type capacitor struct {
	a, b int
	c    float64
}

type diode struct {
	anode, cathode int
	is             float64 // saturation current
	nvt            float64 // emission coefficient × thermal voltage
}

type vsource struct {
	pos, neg int
	v        func(t float64) float64
}

func (c *Circuit) touch(nodes ...int) {
	for _, n := range nodes {
		if n < 0 {
			panic(fmt.Sprintf("circuit: negative node %d", n))
		}
		if n+1 > c.nodes {
			c.nodes = n + 1
		}
	}
}

// Node allocates and returns a fresh non-ground node index.
func (c *Circuit) Node() int {
	if c.nodes == 0 {
		c.nodes = 1 // reserve node 0 for ground
	}
	n := c.nodes
	c.nodes++
	return n
}

// Resistor connects a resistance r (ohms) between nodes a and b.
func (c *Circuit) Resistor(a, b int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("circuit: non-positive resistance %v", r))
	}
	c.touch(a, b)
	c.rs = append(c.rs, resistor{a, b, r})
}

// Capacitor connects a capacitance f (farads) between nodes a and b.
func (c *Circuit) Capacitor(a, b int, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("circuit: non-positive capacitance %v", f))
	}
	c.touch(a, b)
	c.cs = append(c.cs, capacitor{a, b, f})
}

// Diode connects a diode from anode to cathode with the given saturation
// current (amps) and emission-coefficient×thermal-voltage product nVt
// (volts). Schottky detector diodes like the HSMS-285x have Is around
// 3 µA and n·Vt around 27 mV, giving the low turn-on voltage RF
// detectors rely on.
func (c *Circuit) Diode(anode, cathode int, is, nvt float64) {
	if is <= 0 || nvt <= 0 {
		panic("circuit: diode parameters must be positive")
	}
	c.touch(anode, cathode)
	c.ds = append(c.ds, diode{anode, cathode, is, nvt})
}

// SchottkyDiode adds a diode with typical RF-detector Schottky
// parameters.
func (c *Circuit) SchottkyDiode(anode, cathode int) {
	c.Diode(anode, cathode, 3e-6, 0.027)
}

// VSource connects a time-varying ideal voltage source (pos relative to
// neg).
func (c *Circuit) VSource(pos, neg int, v func(t float64) float64) {
	if v == nil {
		panic("circuit: nil source function")
	}
	c.touch(pos, neg)
	c.vs = append(c.vs, vsource{pos, neg, v})
}

// Sine connects a sinusoidal source of the given amplitude (volts) and
// frequency (hertz).
func (c *Circuit) Sine(pos, neg int, amplitude, freq float64) {
	w := 2 * math.Pi * freq
	c.VSource(pos, neg, func(t float64) float64 { return amplitude * math.Sin(w*t) })
}

// Result holds a transient simulation's sampled node voltages.
type Result struct {
	// Time holds the sample instants.
	Time []float64
	// V[n] holds the voltage waveform of node n.
	V [][]float64
}

// Voltage returns the waveform of one node.
func (r *Result) Voltage(node int) []float64 { return r.V[node] }

// Final returns the last sampled voltage of a node.
func (r *Result) Final(node int) float64 { return r.V[node][len(r.V[node])-1] }

// errNoConverge is returned when Newton iteration fails; exposed as a
// sentinel for tests.
var errNoConverge = errors.New("circuit: Newton iteration did not converge")

// Transient runs a backward-Euler transient analysis from t=0 to tStop
// with fixed step dt, sampling every node at every step. All initial node
// voltages are zero.
func (c *Circuit) Transient(dt, tStop float64) (*Result, error) {
	if dt <= 0 || tStop <= dt {
		return nil, fmt.Errorf("circuit: invalid time grid dt=%v tStop=%v", dt, tStop)
	}
	n := c.nodes - 1 // unknown node voltages (ground eliminated)
	if n < 1 {
		return nil, errors.New("circuit: no nodes beyond ground")
	}
	nv := len(c.vs)
	dim := n + nv

	steps := int(math.Ceil(tStop / dt))
	res := &Result{Time: make([]float64, 0, steps+1), V: make([][]float64, c.nodes)}
	for i := range res.V {
		res.V[i] = make([]float64, 0, steps+1)
	}

	vPrev := make([]float64, c.nodes) // previous-step node voltages
	record := func(t float64, v []float64) {
		res.Time = append(res.Time, t)
		for i := range res.V {
			res.V[i] = append(res.V[i], v[i])
		}
	}
	record(0, vPrev)

	// Workspace reused across steps.
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	vGuess := make([]float64, c.nodes)

	for step := 1; step <= steps; step++ {
		t := float64(step) * dt
		copy(vGuess, vPrev)
		converged := false
		for iter := 0; iter < 200; iter++ {
			c.stamp(a, vGuess, vPrev, t, dt, n)
			sol, err := solveDense(a, dim)
			if err != nil {
				return nil, err
			}
			maxDelta := 0.0
			for i := 1; i < c.nodes; i++ {
				nv := sol[i-1]
				if d := math.Abs(nv - vGuess[i]); d > maxDelta {
					maxDelta = d
				}
				// Damp large Newton steps to keep the diode exponential
				// under control.
				if d := nv - vGuess[i]; d > 0.5 {
					nv = vGuess[i] + 0.5
				} else if d < -0.5 {
					nv = vGuess[i] - 0.5
				}
				vGuess[i] = nv
			}
			if maxDelta < 1e-9 {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("%w at t=%v", errNoConverge, t)
		}
		copy(vPrev, vGuess)
		record(t, vPrev)
	}
	return res, nil
}

// stamp assembles the MNA matrix (dim × dim) and RHS (last column) for
// the current Newton guess.
func (c *Circuit) stamp(a [][]float64, vGuess, vPrev []float64, t, dt float64, n int) {
	dim := len(a)
	for i := range a {
		for j := range a[i] {
			a[i][j] = 0
		}
	}
	addG := func(x, y int, g float64) {
		// Node indices are 1-based (0 is ground); matrix rows 0..n-1.
		if x > 0 && y > 0 {
			a[x-1][y-1] += g
		}
	}
	addI := func(x int, i float64) {
		if x > 0 {
			a[x-1][dim] += i
		}
	}
	stampConductance := func(x, y int, g float64) {
		addG(x, x, g)
		addG(y, y, g)
		addG(x, y, -g)
		addG(y, x, -g)
	}
	for _, r := range c.rs {
		stampConductance(r.a, r.b, 1/r.r)
	}
	for _, cap := range c.cs {
		g := cap.c / dt
		stampConductance(cap.a, cap.b, g)
		ieq := g * (vPrev[cap.a] - vPrev[cap.b])
		addI(cap.a, ieq)
		addI(cap.b, -ieq)
	}
	for _, d := range c.ds {
		vd := vGuess[d.anode] - vGuess[d.cathode]
		// Clamp the exponent for numerical safety; the damped Newton
		// steps keep the operating point honest.
		x := vd / d.nvt
		if x > 80 {
			x = 80
		}
		e := math.Exp(x)
		id := d.is * (e - 1)
		gd := d.is / d.nvt * e
		if gd < 1e-12 {
			gd = 1e-12 // keep the matrix non-singular when fully off
		}
		ieq := id - gd*vd
		stampConductance(d.anode, d.cathode, gd)
		addI(d.anode, -ieq)
		addI(d.cathode, ieq)
	}
	for k, s := range c.vs {
		row := n + k
		if s.pos > 0 {
			a[row][s.pos-1] += 1
			a[s.pos-1][row] += 1
		}
		if s.neg > 0 {
			a[row][s.neg-1] -= 1
			a[s.neg-1][row] -= 1
		}
		a[row][dim] = s.v(t)
	}
}

// solveDense solves the dim×dim system in-place with partial pivoting;
// the augmented column holds the RHS.
func solveDense(a [][]float64, dim int) ([]float64, error) {
	for col := 0; col < dim; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-18 {
			return nil, errors.New("circuit: singular matrix (floating node?)")
		}
		a[col], a[p] = a[p], a[col]
		piv := a[col][col]
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / piv
			if f == 0 {
				continue
			}
			for j := col; j <= dim; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	x := make([]float64, dim)
	for i := 0; i < dim; i++ {
		x[i] = a[i][dim] / a[i][i]
	}
	return x, nil
}
