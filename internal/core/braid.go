package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"braidio/internal/energy"
	"braidio/internal/frame"
	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Braid runs the carrier-offload layer against a pair of batteries: it
// periodically re-solves the allocation for the current energy levels
// (§4.2: "Braidio also periodically re-computes the ratio"), executes the
// braided schedule, charges mode-switch overheads, and drains both sides
// until one dies.
type Braid struct {
	// Model is the calibrated PHY.
	Model *phy.Model
	// Distance between the endpoints.
	Distance units.Meter
	// IncludeSwitchOverhead charges the Table 5 energies per mode
	// transition. The ablation bench turns this off.
	IncludeSwitchOverhead bool
	// Interleave uses the even-spread schedule instead of the default
	// contiguous blocks; it smooths instantaneous drain at the price of
	// a switch per frame boundary (the scheduler ablation).
	Interleave bool
	// Optimizer picks the allocation each epoch; nil means Optimize.
	// A custom optimizer receives the row and the budgets every epoch and
	// validates them itself; net's rate-floored slots set one.
	Optimizer func(links []phy.ModeLink, e1, e2 units.Joule) (*Allocation, error)
	// MaxBits, when positive, stops the run after that many delivered
	// bits instead of waiting for a battery to die — used to interleave
	// directions in bidirectional scenarios.
	MaxBits float64
	// Links, when non-nil, supplies the run's characterized links
	// directly and skips per-run characterization. Three callers set it:
	// the round engine (internal/net) puts each slot's kept link row here
	// every round, and sim's RunPair and RunBidirectional put the row they
	// characterized once. The run only reads the row.
	Links []phy.ModeLink
	// Obs, when non-nil, receives run totals, per-mode occupancy, and
	// solver metrics. Nil falls back to the process default recorder
	// (obs.Active); attaching a recorder never changes a run's Result.
	Obs *obs.Recorder
}

// scheduleWindow is the number of frames per scheduling window.
const scheduleWindow = 128

// epochFraction is the fraction of the currently projected lifetime
// transferred between allocation re-computations.
const epochFraction = 0.02

// NewBraid returns a Braid with the defaults used by the evaluation.
func NewBraid(m *phy.Model, d units.Meter) *Braid {
	b := DefaultBraid(m, d)
	return &b
}

// DefaultBraid is NewBraid returning the braid by value, for callers
// (the round engine's pooled per-member scratch) that embed the braid
// in their own storage instead of heap-allocating one per round.
func DefaultBraid(m *phy.Model, d units.Meter) Braid {
	return Braid{
		Model:                 m,
		Distance:              d,
		IncludeSwitchOverhead: true,
	}
}

// Result summarizes a braid run.
type Result struct {
	// Bits is the total payload bits delivered.
	Bits float64
	// Duration is the on-air time spent.
	Duration units.Second
	// Drain1 and Drain2 are the energies drawn at transmitter and
	// receiver.
	Drain1, Drain2 units.Joule
	// ModeBits attributes delivered bits to modes, indexed by phy.Mode
	// — a flat array rather than a map, so resetting a reused Result is
	// a zeroing store and per-epoch attribution is an indexed add with
	// no hashing (the hub commits one of these per member per round).
	ModeBits [phy.NumModes]float64
	// Switches counts mode transitions; SwitchEnergy1/2 their cost.
	Switches                     int
	SwitchEnergy1, SwitchEnergy2 units.Joule
	// Epochs counts allocation re-computations.
	Epochs int
	// LPSolves counts optimizer solves. Every epoch solves afresh, so it
	// equals Epochs, plus one when a run ends on a solve that projects
	// no bits.
	LPSolves int
}

// ModeFraction returns the fraction of bits carried by a mode.
func (r *Result) ModeFraction(m phy.Mode) float64 {
	if r.Bits == 0 {
		return 0
	}
	return r.ModeBits[m] / r.Bits
}

// ErrOutOfRange reports that no mode works at the configured distance.
var ErrOutOfRange = errors.New("core: no mode available at this distance")

// ErrDegenerateAllocation reports an allocation whose scheduling window
// drains no energy at one of the endpoints — a degenerate (typically
// custom-Optimizer) allocation that would otherwise loop forever making
// no progress before dying with an opaque convergence failure.
var ErrDegenerateAllocation = errors.New("core: allocation drains no energy over a window")

// ErrLinkDead reports that a link failed permanently after bounded
// recovery attempts: §4.2's fallback safety net reverted to the active
// mode, re-probed, and still could not restore service. Protocol layers
// (the MAC session, the hub's member scheduler) wrap this error around
// the final cause so callers can errors.Is both the verdict and the
// reason.
var ErrLinkDead = errors.New("core: link dead after bounded recovery attempts")

// RunScratch holds the reusable buffers one braid needs across Run
// calls: the block-schedule count/remainder vectors and the default
// optimizer's allocation target. A zero RunScratch is ready to use.
// Reusing one scratch across many RunInto calls (the round engine
// serves each member thousands of rounds) drops the per-call allocation
// count to zero on the default-optimizer path. The scratch carries no
// state between runs, so a run's result never depends on what the
// scratch last held. A RunScratch is not safe for concurrent use.
type RunScratch struct {
	counts     []int
	remainders []float64
	// alloc backs the default optimizer's in-place solves.
	alloc Allocation
}

// Run drains the two batteries (b1 at the data transmitter, b2 at the
// data receiver) until either is empty, returning the totals. The
// batteries are mutated.
func (b *Braid) Run(b1, b2 *energy.Battery) (*Result, error) {
	res := &Result{}
	if err := b.RunInto(res, nil, b1, b2); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run with caller-owned result and scratch storage: res is
// reset in place and s, when non-nil, supplies the schedule/optimizer
// buffers. A nil s uses throwaway scratch, making RunInto byte-identical
// to Run. The round engine (internal/net) calls this once per member per
// round with persistent per-member scratch, which is what takes the
// steady-state round to zero heap allocations.
//
// With the default optimizer the run checks its row once, at the first
// epoch and after that epoch's budgets, and each epoch checks only the
// budgets before the enumeration: the errors are those of Optimize
// called every epoch, and a run whose battery starts empty returns nil
// without looking at the row.
func (b *Braid) RunInto(res *Result, s *RunScratch, b1, b2 *energy.Battery) error {
	if b.Model == nil || b1 == nil || b2 == nil {
		return errors.New("core: braid needs a model and two batteries")
	}
	if s == nil {
		s = &RunScratch{}
	}
	*res = Result{}
	links := b.Links
	if links == nil {
		links = linkcache.Characterize(b.Model, b.Distance)
	}
	if len(links) == 0 {
		return ErrOutOfRange
	}
	payloadBits := float64(8 * b.Model.PayloadLen)
	windowBits := payloadBits * scheduleWindow
	prevMode := phy.ModeActive // sessions start on the active radio (§4.2)

	// Observability: rec == nil is the common case and every record site
	// below guards on it, so the uninstrumented run costs one pointer
	// compare per site and zero allocations. Per-mode air time is
	// accumulated locally and recorded once per run (one fixed-point
	// quantization per mode per run, and no atomics inside the loop).
	rec := obs.Active(b.Obs)
	var modeTime [obs.NumModes]float64

	// Mode-switch counting accumulates fractional windows in float64 and
	// rounds once at the end; truncating per epoch (as this loop once
	// did) systematically undercounts while SwitchEnergy1/2 still charge
	// the full fractional cost.
	var switchesF float64
	counts := s.counts
	remainders := s.remainders

	rowChecked := false
	const maxEpochs = 1_000_000
	for !b1.Empty() && !b2.Empty() {
		if res.Epochs >= maxEpochs {
			return errors.New("core: braid failed to converge")
		}
		e1, e2 := b1.Remaining(), b2.Remaining()

		var solveStart time.Time
		if rec != nil {
			solveStart = time.Now()
		}
		alloc := &s.alloc
		if b.Optimizer != nil {
			a, err := b.Optimizer(links, e1, e2)
			if err != nil {
				return err
			}
			alloc = a
		} else {
			if err := validateBudgets(e1, e2); err != nil {
				return err
			}
			if !rowChecked {
				if err := validateRow(links); err != nil {
					return err
				}
				rowChecked = true
			}
			solveInto(alloc, links, e1, e2)
		}
		if rec != nil {
			rec.LPSolveLatency.Observe(float64(time.Since(solveStart)))
		}
		res.LPSolves++
		aLinks, p, projBits := alloc.Links, alloc.P, alloc.Bits
		if projBits <= 0 || math.IsNaN(projBits) {
			break
		}
		res.Epochs++

		// Target bits this epoch: a slice of the projected lifetime, at
		// least one scheduling window so the loop always advances.
		epochBits := max(projBits*epochFraction, windowBits)
		if b.MaxBits > 0 {
			left := b.MaxBits - res.Bits
			if left <= 0 {
				break
			}
			if epochBits > left {
				epochBits = left
			}
		}
		windows := epochBits / windowBits

		if cap(counts) < len(aLinks) {
			counts = make([]int, len(aLinks))
			remainders = make([]float64, len(aLinks))
		}
		counts = counts[:len(aLinks)]
		remainders = remainders[:len(aLinks)]

		// Price one scheduling window: data plus (optionally) switch
		// overheads. The default block schedule never needs the sequence
		// materialized — counts, transitions, and switch costs all follow
		// from the per-mode frame counts and the canonical block order.
		var winTX, winRX, winTime, swTX, swRX float64
		transitions := 0
		endMode := prevMode
		if b.Interleave {
			seq := Schedule(aLinks, p, scheduleWindow)
			for i := range counts {
				counts[i] = 0
			}
			for _, mode := range seq {
				for i := range aLinks {
					if aLinks[i].Mode == mode {
						counts[i]++
						break
					}
				}
			}
			for i, l := range aLinks {
				if counts[i] == 0 {
					continue
				}
				n := float64(counts[i])
				winTX += n * payloadBits * float64(l.T)
				winRX += n * payloadBits * float64(l.R)
				winTime += n * payloadBits / float64(l.Good)
			}
			transitions = Transitions(seq, prevMode)
			if b.IncludeSwitchOverhead {
				rates := make(map[phy.Mode]units.BitRate, len(aLinks))
				for _, l := range aLinks {
					rates[l.Mode] = l.Rate
				}
				swTX, swRX = SwitchEnergyOf(seq, prevMode, rates)
			}
			endMode = seq[len(seq)-1]
		} else {
			blockCounts(p, scheduleWindow, counts, remainders)
			prev := prevMode
			for i, l := range aLinks {
				if counts[i] == 0 {
					continue
				}
				n := float64(counts[i])
				winTX += n * payloadBits * float64(l.T)
				winRX += n * payloadBits * float64(l.R)
				winTime += n * payloadBits / float64(l.Good)
				if l.Mode != prev {
					transitions++
					if b.IncludeSwitchOverhead {
						t, rcv := phy.SwitchCost(l.Mode, l.Rate)
						swTX += float64(t)
						swRX += float64(rcv)
					}
					prev = l.Mode
				}
			}
			endMode = prev
		}
		winTX += swTX
		winRX += swRX

		// A window that drains neither endpoint would make maxWin below
		// NaN/Inf and spin forever without progress; the negated
		// comparisons also catch NaN costs.
		if !(winTX > 0) || !(winRX > 0) {
			return fmt.Errorf("%w: window energies tx=%v rx=%v", ErrDegenerateAllocation, winTX, winRX)
		}

		// How many whole windows fit in both remaining budgets?
		maxWin := min(float64(e1)/winTX, float64(e2)/winRX)
		partial := false
		if windows > maxWin {
			windows = maxWin
			partial = true
		}
		if windows <= 0 {
			break
		}

		b1.Drain(units.Joule(windows * winTX))
		b2.Drain(units.Joule(windows * winRX))
		res.Drain1 += units.Joule(windows * winTX)
		res.Drain2 += units.Joule(windows * winRX)
		res.Bits += windows * windowBits
		res.Duration += units.Second(windows * winTime)
		switchesF += windows * float64(transitions)
		res.SwitchEnergy1 += units.Joule(windows * swTX)
		res.SwitchEnergy2 += units.Joule(windows * swRX)
		for i, l := range aLinks {
			res.ModeBits[l.Mode] += windows * payloadBits * float64(counts[i])
			if rec != nil && counts[i] > 0 {
				modeTime[l.Mode] += windows * payloadBits * float64(counts[i]) / float64(l.Good)
			}
		}
		prevMode = endMode
		if partial {
			break // one side is exhausted to within a rounding sliver
		}
	}
	res.Switches = int(math.Round(switchesF))
	s.counts, s.remainders = counts, remainders
	if rec != nil {
		rec.BraidRuns.Add(1)
		rec.Epochs.Add(uint64(res.Epochs))
		rec.LPSolves.Add(uint64(res.LPSolves))
		rec.Switches.Add(uint64(res.Switches))
		rec.Bits.Add(res.Bits)
		rec.AirTime.Add(float64(res.Duration))
		rec.DrainTX.Add(float64(res.Drain1))
		rec.DrainRX.Add(float64(res.Drain2))
		rec.SwitchEnergy.Add(float64(res.SwitchEnergy1 + res.SwitchEnergy2))
		for m, bits := range res.ModeBits {
			rec.ModeBits[m].Add(bits)
		}
		for i := range modeTime {
			rec.ModeTime[i].Add(modeTime[i])
		}
		if res.Bits > 0 {
			rec.EnergyPerBit.Observe(float64(res.Drain1+res.Drain2) / res.Bits)
		}
	}
	return nil
}

// RatioWithin reports whether two ratios agree to within a symmetric
// relative tolerance: |a−b| ≤ tol·max(|a|, |b|). A non-positive
// tolerance demands bit-identical values. It is the serve daemon's
// dirty-set predicate: a member keeps its plan while its energy ratio
// has not drifted past the tolerance.
//
// The tolerance is symmetric in its arguments on purpose: an
// |a−b| ≤ tol·b form would make a zero planned ratio — a fully drained
// endpoint — demand exact equality (tol·0 = 0), and would give
// different verdicts depending on which value was the planned one. Two
// zeros always agree.
func RatioWithin(a, b, tol float64) bool {
	if tol <= 0 {
		return a == b
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

// RunFresh creates full batteries of the given capacities and runs the
// braid over them, returning the result.
func (b *Braid) RunFresh(c1, c2 units.WattHour) (*Result, error) {
	return b.Run(energy.NewBattery(c1), energy.NewBattery(c2))
}

// FrameOverheadBits is the per-frame overhead the braid accounts for.
const FrameOverheadBits = 8 * frame.Overhead
