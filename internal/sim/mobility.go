package sim

import (
	"fmt"
	"sort"

	"braidio/internal/rng"
	"braidio/internal/units"
)

// Walk is a one-dimensional mobility trace: the separation between the
// two endpoints as a function of time. The evaluation's Scenario 3
// (Fig. 18) sweeps static distances; walks extend that to the dynamic
// environments §4.2's fallback logic is designed for.
type Walk interface {
	// DistanceAt returns the separation at absolute time t ≥ 0.
	DistanceAt(t units.Second) units.Meter
}

// StaticWalk is a constant separation.
type StaticWalk units.Meter

// DistanceAt implements Walk.
func (s StaticWalk) DistanceAt(units.Second) units.Meter { return units.Meter(s) }

// LinearWalk moves from Start to End over Duration and stays there.
type LinearWalk struct {
	Start, End units.Meter
	Duration   units.Second
}

// DistanceAt implements Walk.
func (l LinearWalk) DistanceAt(t units.Second) units.Meter {
	if l.Duration <= 0 || t >= l.Duration {
		return l.End
	}
	if t <= 0 {
		return l.Start
	}
	f := float64(t / l.Duration)
	return l.Start + units.Meter(f)*(l.End-l.Start)
}

// RandomWaypoint is the classic mobility model restricted to the
// line-of-separation: pick a target distance uniformly in [Min, Max],
// move toward it at Speed, pause, repeat. Deterministic given its
// stream.
type RandomWaypoint struct {
	// Min and Max bound the separation.
	Min, Max units.Meter
	// Speed in m/s (walking ≈ 1.4).
	Speed float64
	// Pause at each waypoint.
	Pause units.Second

	stream   *rng.Stream
	segments []segment
}

type segment struct {
	start    units.Second
	duration units.Second
	from, to units.Meter
}

// NewRandomWaypoint validates and returns a walk starting at Min.
func NewRandomWaypoint(min, max units.Meter, speed float64, pause units.Second, stream *rng.Stream) *RandomWaypoint {
	if min <= 0 || max <= min {
		panic(fmt.Sprintf("sim: bad waypoint bounds [%v, %v]", float64(min), float64(max)))
	}
	if speed <= 0 || pause < 0 {
		panic(fmt.Sprintf("sim: bad waypoint dynamics speed=%v pause=%v", speed, float64(pause)))
	}
	if stream == nil {
		panic("sim: nil stream")
	}
	return &RandomWaypoint{Min: min, Max: max, Speed: speed, Pause: pause, stream: stream}
}

// DistanceAt implements Walk, extending the trace lazily and caching it
// so repeated queries are consistent.
//
// Each segment starts exactly where the previous one ends (extend
// computes both from the same sum), so the segments tile [0, end) in
// order with non-decreasing ends, and the segment holding t is the first
// whose end lies after t — found by binary search once the trace reaches
// past t. Zero-length segments never hold a time.
func (w *RandomWaypoint) DistanceAt(t units.Second) units.Meter {
	if t < 0 {
		panic(fmt.Sprintf("sim: negative time %v", float64(t)))
	}
	for len(w.segments) == 0 || w.segments[len(w.segments)-1].end() <= t {
		w.extend()
	}
	seg := w.segments[sort.Search(len(w.segments), func(i int) bool { return t < w.segments[i].end() })]
	f := float64((t - seg.start) / seg.duration)
	return seg.from + units.Meter(f)*(seg.to-seg.from)
}

// end is the time the segment ends (exclusive).
func (s segment) end() units.Second { return s.start + s.duration }

// extend appends one move segment and one pause segment.
func (w *RandomWaypoint) extend() {
	var start units.Second
	from := w.Min
	if n := len(w.segments); n > 0 {
		last := w.segments[n-1]
		start = last.end()
		from = last.to
	}
	target := w.Min + units.Meter(w.stream.Float64())*(w.Max-w.Min)
	dist := float64(target - from)
	if dist < 0 {
		dist = -dist
	}
	travel := units.Second(dist / w.Speed)
	if travel <= 0 {
		travel = 1e-9 // degenerate same-point waypoint
	}
	w.segments = append(w.segments,
		segment{start: start, duration: travel, from: from, to: target},
		segment{start: start + travel, duration: w.Pause, from: target, to: target},
	)
}
