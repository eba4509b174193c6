package core

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/lp"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// OptimizeQoS extends the offload optimizer with a minimum-throughput
// constraint: the braided mixture must deliver at least minRate payload
// bits per second of air time. Time-sharing means the mixture's
// throughput is the harmonic combination 1/Σ(p_i/g_i), so the
// constraint Σ p_i/g_i ≤ 1/minRate is linear — the problem stays a
// small LP over the Eq. 1 structure with one extra inequality.
//
// A real-time source (the Pivothead's video) needs this: at distances
// where backscatter only runs at 10 kbps, pure power-proportionality
// would braid in slow slots that a 30 fps stream cannot absorb.
//
// A minRate that is not positive sets no floor, and a NaN minRate is an
// input error. It returns ErrQoSInfeasible when no feasible mixture meets
// the rate at the required power proportion, and ErrRateUnreachable when
// even the fastest single link is slower than minRate.
func OptimizeQoS(links []phy.ModeLink, e1, e2 units.Joule, minRate units.BitRate) (*Allocation, error) {
	return new(QoSScratch).Optimize(links, e1, e2, minRate)
}

// QoSScratch holds the buffers OptimizeQoS solves in — the LP's rows,
// its simplex workspace, the vertex search's fractions and the returned
// allocation — so a caller that solves repeatedly (a rate-floored
// member's braid, every epoch) allocates nothing per solve. The zero
// value is ready to use. The Allocation Optimize returns is overwritten
// by its next call. A QoSScratch is not safe for concurrent use.
type QoSScratch struct {
	ws    lp.Workspace
	buf   []float64
	alloc Allocation
}

// Optimize is OptimizeQoS in the scratch's buffers.
func (s *QoSScratch) Optimize(links []phy.ModeLink, e1, e2 units.Joule, minRate units.BitRate) (*Allocation, error) {
	if err := validateInputs(links, e1, e2); err != nil {
		return nil, err
	}
	// NaN fails both checks below and would reach the LP as an unbounded
	// problem.
	if math.IsNaN(float64(minRate)) {
		return nil, fmt.Errorf("core: rate floor %v is not a number", float64(minRate))
	}
	if minRate <= 0 {
		solveInto(&s.alloc, links, e1, e2)
		return &s.alloc, nil
	}
	fastest := units.BitRate(0)
	for _, l := range links {
		if l.Good > fastest {
			fastest = l.Good
		}
	}
	if fastest < minRate {
		return nil, fmt.Errorf("%w: best link delivers %v < %v", ErrRateUnreachable, fastest, minRate)
	}

	// First try the power-proportional LP with the throughput row.
	ratio := float64(e1) / float64(e2)
	n := len(links)
	// Variables: p_1..p_n, slack s for the throughput inequality. The
	// four LP rows and the vertex search's two fraction vectors share
	// one zeroed buffer, w wide each.
	w := n + 1
	if cap(s.buf) < 6*w {
		s.buf = make([]float64, 6*w)
	}
	buf := s.buf[:6*w]
	clear(buf)
	c, ones, ratioRow, rateRow := buf[:w], buf[w:2*w], buf[2*w:3*w], buf[3*w:4*w]
	for i, l := range links {
		c[i] = float64(l.T) + float64(l.R)
		ones[i] = 1
		ratioRow[i] = float64(l.T) - ratio*float64(l.R)
		rateRow[i] = 1 / float64(l.Good)
	}
	rateRow[n] = 1 // slack: Σ p/g + s = 1/minRate
	sol, err := s.ws.Solve(&lp.Problem{
		C: c,
		A: [][]float64{ones, ratioRow, rateRow},
		B: []float64{1, 0, 1 / float64(minRate)},
	})
	if err == nil {
		alloc := &s.alloc
		*alloc = Allocation{Links: links, P: sol.X[:n]}
		alloc.TX, alloc.RX = mixture(links, alloc.P)
		alloc.Bits = bitsFor(alloc.TX, alloc.RX, e1, e2)
		return alloc, nil
	}
	if !errors.Is(err, lp.ErrInfeasible) {
		return nil, err
	}

	// Power-proportionality and the rate floor cannot both hold: keep
	// the rate floor (a deadline is hard; a battery imbalance is not)
	// and maximize delivered bits over the rate-feasible simplex by
	// enumerating its vertices: pure fast modes and pairwise mixes where
	// either the rate constraint or the budget balance is active.
	best := &s.alloc
	*best = Allocation{Links: links, P: buf[4*w : 4*w+n], Bits: -1}
	consider := func(p []float64) {
		var invRate float64
		for i := range links {
			invRate += p[i] / float64(links[i].Good)
		}
		if invRate > 1/float64(minRate)+1e-12 {
			return
		}
		tx, rx := mixture(links, p)
		bits := bitsFor(tx, rx, e1, e2)
		if bits > best.Bits {
			copy(best.P, p)
			best.TX, best.RX, best.Bits = tx, rx, bits
		}
	}
	p := buf[5*w : 5*w+n]
	for i := range links {
		for j := range p {
			p[j] = 0
		}
		p[i] = 1
		consider(p)
	}
	for i := range links {
		for j := i + 1; j < n; j++ {
			for k := range p {
				p[k] = 0
			}
			// Budget-balance point on the (i, j) edge.
			ai := float64(links[i].T) - ratio*float64(links[i].R)
			aj := float64(links[j].T) - ratio*float64(links[j].R)
			if den := ai - aj; den != 0 {
				if q := -aj / den; q > 0 && q < 1 {
					p[i], p[j] = q, 1-q
					consider(p)
				}
			}
			// Rate-constraint-active point on the (i, j) edge:
			// q/g_i + (1−q)/g_j = 1/minRate.
			gi, gj := 1/float64(links[i].Good), 1/float64(links[j].Good)
			if den := gi - gj; den != 0 {
				if q := (1/float64(minRate) - gj) / den; q > 0 && q < 1 {
					p[i], p[j] = q, 1-q
					consider(p)
				}
			}
			p[i], p[j] = 0, 0
		}
	}
	if best.Bits < 0 {
		return nil, ErrQoSInfeasible
	}
	return best, nil
}

// Errors returned by OptimizeQoS.
var (
	// ErrRateUnreachable: no single link is fast enough.
	ErrRateUnreachable = errors.New("core: required rate exceeds every link")
	// ErrQoSInfeasible: no mixture satisfies the rate floor.
	ErrQoSInfeasible = errors.New("core: no rate-feasible mixture")
)

// Throughput returns an allocation's delivered payload rate under
// time-sharing: 1/Σ(p_i/g_i).
func (a *Allocation) Throughput() units.BitRate {
	var inv float64
	for i, l := range a.Links {
		if a.P[i] > 0 {
			inv += a.P[i] / float64(l.Good)
		}
	}
	if inv <= 0 || math.IsInf(inv, 0) {
		return 0
	}
	return units.BitRate(1 / inv)
}
