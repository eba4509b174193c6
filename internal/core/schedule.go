package core

import (
	"fmt"

	"braidio/internal/phy"
	"braidio/internal/units"
)

// Schedule expands an allocation's fractions into a deterministic window
// of per-frame mode assignments, spreading modes as evenly as possible:
// it is the first window slots of a fresh Scheduler (Bresenham-style:
// each slot goes to the mode with the largest deficit between its target
// share and what it has received). Even spreading keeps both endpoints'
// instantaneous drain close to the allocation's average, instead of long
// single-mode bursts.
//
// The example in §4.2 — p = (0.5, 0.25, 0.25) yielding
// Active-Active-Passive-Backscatter repeated — is one such even spread.
func Schedule(links []phy.ModeLink, p []float64, window int) []phy.Mode {
	s := NewScheduler(links, p)
	if window < 1 {
		panic("core: schedule window must be ≥ 1")
	}
	if len(links) == 0 {
		return nil // no modes, nothing to spread
	}
	seq := make([]phy.Mode, window)
	for i := range seq {
		seq[i] = s.Next().Mode
	}
	return seq
}

// ScheduleBlocks expands fractions into a window of contiguous per-mode
// blocks (largest-remainder rounding of the counts, modes in canonical
// order). Blocks minimize mode transitions — at most one per mode per
// window — which matters when switch energy is non-trivial (the Table 5
// backscatter entry at low bitrates). The braid engine batches with
// blocks by default; the interleaved Schedule is the ablation
// alternative, smoother in instantaneous drain but switch-heavy.
func ScheduleBlocks(links []phy.ModeLink, p []float64, window int) []phy.Mode {
	if len(links) != len(p) {
		panic(fmt.Sprintf("core: %d links but %d fractions", len(links), len(p)))
	}
	if window < 1 {
		panic("core: schedule window must be ≥ 1")
	}
	if len(links) == 0 {
		return nil // no modes, nothing to block out
	}
	counts := make([]int, len(links))
	blockCounts(p, window, counts, make([]float64, len(links)))
	seq := make([]phy.Mode, 0, window)
	for i, l := range links {
		for k := 0; k < counts[i]; k++ {
			seq = append(seq, l.Mode)
		}
	}
	return seq
}

// blockCounts fills counts with the largest-remainder frame counts
// ScheduleBlocks realizes for the given fractions — the braid engine
// prices block windows from these counts directly, without materializing
// the sequence, so the rounding must live in exactly one place. counts
// and remainders are caller-provided scratch of len(p). The counts
// always total exactly window, even when float noise makes the
// fractions sum to 1±ε: a deficit is topped up from the largest
// remainders, an excess trimmed from the smallest (without either
// clamp, fractions summing to 1+ε can truncate to more than window
// frames — an over-long sequence and an over-priced block window — and
// an empty p would spin on remainders[best]).
func blockCounts(p []float64, window int, counts []int, remainders []float64) {
	if len(p) == 0 {
		return
	}
	total := 0
	for i, pi := range p {
		exact := pi * float64(window)
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for total < window {
		best := 0
		for i := 1; i < len(remainders); i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		total++
	}
	for total > window {
		best := -1
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			if best < 0 || remainders[i] < remainders[best] {
				best = i
			}
		}
		counts[best]--
		remainders[best] = 2 // above any real remainder: spread repeated trims
		total--
	}
}

// Scheduler is a persistent even-spread scheduler: its deficit state
// carries across calls, so the realized mode shares converge to the
// target fractions exactly even when a window is too coarse to represent
// them (e.g. a 3% backscatter share in a 16-frame window).
type Scheduler struct {
	links []phy.ModeLink
	p     []float64
	given []float64
	slots float64
}

// NewScheduler returns a scheduler for the given links and fractions.
func NewScheduler(links []phy.ModeLink, p []float64) *Scheduler {
	if len(links) != len(p) {
		panic(fmt.Sprintf("core: %d links but %d fractions", len(links), len(p)))
	}
	return &Scheduler{links: links, p: append([]float64(nil), p...), given: make([]float64, len(links))}
}

// Next returns the mode for the next frame slot.
func (s *Scheduler) Next() phy.ModeLink {
	s.slots++
	best, bestDeficit := -1, 0.0
	for i := range s.links {
		deficit := s.p[i]*s.slots - s.given[i]
		if best < 0 || deficit > bestDeficit {
			best, bestDeficit = i, deficit
		}
	}
	s.given[best]++
	return s.links[best]
}

// Retarget installs a new allocation, restarting the spread from a clean
// deficit state (a recompute changes the target going forward; it should
// not try to compensate for history accumulated under the old target).
func (s *Scheduler) Retarget(links []phy.ModeLink, p []float64) {
	if len(links) != len(p) {
		panic(fmt.Sprintf("core: %d links but %d fractions", len(links), len(p)))
	}
	s.links = links
	s.p = append(s.p[:0:0], p...)
	s.given = make([]float64, len(links))
	s.slots = 0
}

// Transitions counts the mode changes when executing seq after having
// been in prev — each change is a radio reconfiguration that costs the
// Table 5 overheads.
func Transitions(seq []phy.Mode, prev phy.Mode) int {
	n := 0
	for _, m := range seq {
		if m != prev {
			n++
			prev = m
		}
	}
	return n
}

// SwitchEnergyOf sums the per-side switch energies of executing seq after
// prev, using the Table 5 overheads (rate-scaled via phy.SwitchCost) for
// the mode being switched into. rates gives each mode's operating rate.
func SwitchEnergyOf(seq []phy.Mode, prev phy.Mode, rates map[phy.Mode]units.BitRate) (tx, rx float64) {
	for _, m := range seq {
		if m != prev {
			r, ok := rates[m]
			if !ok {
				r = units.Rate10k // worst case when unknown
			}
			t, rcv := phy.SwitchCost(m, r)
			tx += float64(t)
			rx += float64(rcv)
			prev = m
		}
	}
	return tx, rx
}
