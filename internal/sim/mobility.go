package sim

import (
	"fmt"

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

	// stream draws the waypoints; origin is the stream as handed over,
	// from which a query earlier than the cursor replays the walk.
	stream, origin rng.Stream
	// cur is the segment the cursor stands on; moving reports whether it
	// is a move (whose pause comes next) rather than a pause.
	cur    segment
	moving bool
}

type segment struct {
	start    units.Second
	duration units.Second
	from, to units.Meter
}

// NewRandomWaypoint validates and returns a walk starting at Min. The
// walk copies stream and never advances it, so the caller's stream is
// left as it was; callers hand each walk its own (a Split or a fresh
// rng.New) and read that stream no further.
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
	return &RandomWaypoint{Min: min, Max: max, Speed: speed, Pause: pause,
		stream: *stream, origin: *stream, cur: segment{from: min, to: min}}
}

// DistanceAt implements Walk. The walk is a cursor over its segments:
// it steps forward from the segment of the last query, and replays from
// the origin stream when t falls before that segment, so every query
// sees the same trace and a walk allocates nothing after construction.
//
// Each segment starts exactly where the previous one ends (step computes
// both from the same sum), so the segments tile [0, ∞) in order with
// non-decreasing ends, and the cursor stops on the first segment whose
// end lies after t. Zero-length segments never hold a time.
func (w *RandomWaypoint) DistanceAt(t units.Second) units.Meter {
	if t < 0 {
		panic(fmt.Sprintf("sim: negative time %v", float64(t)))
	}
	if t < w.cur.start { // rewind to the walk's start: an empty pause at Min
		w.stream, w.cur, w.moving = w.origin, segment{from: w.Min, to: w.Min}, false
	}
	for w.cur.end() <= t {
		w.step()
	}
	f := float64((t - w.cur.start) / w.cur.duration)
	return w.cur.from + units.Meter(f)*(w.cur.to-w.cur.from)
}

// end is the time the segment ends (exclusive).
func (s segment) end() units.Second { return s.start + s.duration }

// step advances the cursor one segment: a move's pause, or a pause's
// next move, which draws its waypoint from the stream.
func (w *RandomWaypoint) step() {
	start, from := w.cur.end(), w.cur.to
	if w.moving {
		w.cur = segment{start: start, duration: w.Pause, from: from, to: from}
		w.moving = false
		return
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
	w.cur = segment{start: start, duration: travel, from: from, to: target}
	w.moving = true
}
