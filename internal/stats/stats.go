// Package stats provides the small statistical toolkit the experiments
// use: percentiles, series interpolation, and crossover detection for
// range/regime boundaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty slice
// or out-of-range p. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Point is one (X, Y) sample of a series.
type Point struct{ X, Y float64 }

// Series is an ordered set of samples with strictly increasing X, the
// shape every figure's curve is reported in.
type Series []Point

// Interpolate returns the linearly interpolated Y at x. X values outside
// the series range clamp to the endpoint values. It panics on an empty
// series.
func (s Series) Interpolate(x float64) float64 {
	if len(s) == 0 {
		panic("stats: interpolate on empty series")
	}
	if x <= s[0].X {
		return s[0].Y
	}
	if x >= s[len(s)-1].X {
		return s[len(s)-1].Y
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].X >= x })
	a, b := s[i-1], s[i]
	frac := (x - a.X) / (b.X - a.X)
	return a.Y + frac*(b.Y-a.Y)
}

// CrossAbove returns the smallest X at which the series first rises to or
// above the threshold, interpolating between samples, and whether such a
// crossing exists.
func (s Series) CrossAbove(threshold float64) (float64, bool) {
	for i, p := range s {
		if p.Y >= threshold {
			if i == 0 {
				return p.X, true
			}
			a := s[i-1]
			if a.Y == p.Y {
				return p.X, true
			}
			frac := (threshold - a.Y) / (p.Y - a.Y)
			return a.X + frac*(p.X-a.X), true
		}
	}
	return 0, false
}
