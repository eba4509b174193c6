package sim

import (
	"math"
	"testing"

	"braidio/internal/rng"
	"braidio/internal/units"
)

func TestStaticWalk(t *testing.T) {
	w := StaticWalk(1.5)
	if w.DistanceAt(0) != 1.5 || w.DistanceAt(1000) != 1.5 {
		t.Error("static walk moved")
	}
}

func TestLinearWalk(t *testing.T) {
	w := LinearWalk{Start: 0.5, End: 4.5, Duration: 10}
	cases := []struct {
		t    units.Second
		want units.Meter
	}{{-1, 0.5}, {0, 0.5}, {5, 2.5}, {10, 4.5}, {100, 4.5}}
	for _, c := range cases {
		if got := w.DistanceAt(c.t); got != c.want {
			t.Errorf("DistanceAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Zero duration jumps straight to End.
	if got := (LinearWalk{Start: 1, End: 2}).DistanceAt(0); got != 2 {
		t.Errorf("zero-duration walk at t=0 = %v, want 2", got)
	}
}

func TestRandomWaypointBounds(t *testing.T) {
	w := NewRandomWaypoint(0.3, 5, 1.4, 2, rng.New(1))
	for i := 0; i < 5000; i++ {
		d := w.DistanceAt(units.Second(float64(i) * 0.5))
		if d < 0.3-1e-9 || d > 5+1e-9 {
			t.Fatalf("distance %v outside bounds at step %d", d, i)
		}
	}
}

func TestRandomWaypointContinuity(t *testing.T) {
	w := NewRandomWaypoint(0.3, 5, 1.4, 1, rng.New(2))
	prev := w.DistanceAt(0)
	const dt = 0.05
	for i := 1; i < 10000; i++ {
		d := w.DistanceAt(units.Second(float64(i) * dt))
		// Movement per step is bounded by speed·dt.
		if diff := float64(d - prev); diff > 1.4*dt+1e-9 || diff < -1.4*dt-1e-9 {
			t.Fatalf("teleport at step %d: %v → %v", i, prev, d)
		}
		prev = d
	}
}

func TestRandomWaypointConsistentRevisit(t *testing.T) {
	w := NewRandomWaypoint(0.3, 5, 1.4, 1, rng.New(3))
	d1 := w.DistanceAt(100)
	_ = w.DistanceAt(500)
	if w.DistanceAt(100) != d1 {
		t.Error("revisiting an earlier time changed the trace")
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	a := NewRandomWaypoint(0.3, 5, 1.4, 1, rng.New(7))
	b := NewRandomWaypoint(0.3, 5, 1.4, 1, rng.New(7))
	for i := 0; i < 100; i++ {
		tm := units.Second(float64(i) * 3.3)
		if a.DistanceAt(tm) != b.DistanceAt(tm) {
			t.Fatal("same-seed walks diverged")
		}
	}
}

// refWalk is the full-history reference walk: it keeps every segment
// it lays down, one move and one pause at a time, and answers each query
// by rescanning them from the first.
type refWalk struct {
	min, max units.Meter
	speed    float64
	pause    units.Second
	stream   *rng.Stream
	segments []segment
}

// extend appends one move segment and one pause segment.
func (w *refWalk) extend() {
	var start units.Second
	from := w.min
	if n := len(w.segments); n > 0 {
		last := w.segments[n-1]
		start = last.end()
		from = last.to
	}
	target := w.min + units.Meter(w.stream.Float64())*(w.max-w.min)
	dist := float64(target - from)
	if dist < 0 {
		dist = -dist
	}
	travel := units.Second(dist / w.speed)
	if travel <= 0 {
		travel = 1e-9
	}
	w.segments = append(w.segments,
		segment{start: start, duration: travel, from: from, to: target},
		segment{start: start + travel, duration: w.pause, from: target, to: target},
	)
}

// distanceAt is the reference lookup: rescan every segment from the
// first one after each extension.
func (w *refWalk) distanceAt(t units.Second) units.Meter {
	for {
		for _, seg := range w.segments {
			if t >= seg.start && t < seg.start+seg.duration {
				f := float64((t - seg.start) / seg.duration)
				return seg.from + units.Meter(f)*(seg.to-seg.from)
			}
		}
		w.extend()
	}
}

// TestRandomWaypointMatchesLinearScan pins the cursor walk to the
// full-history reference bit for bit — with and without pauses (Pause 0
// makes every other segment zero-length) — over random, monotone,
// repeated, out-of-order and exactly-on-a-boundary query times, and
// checks that the walk leaves the stream it was handed untouched.
func TestRandomWaypointMatchesLinearScan(t *testing.T) {
	for _, pause := range []units.Second{0, 20} {
		const seed = 11
		// Segment boundaries, from a reference walk on the same seed.
		bounds := &refWalk{min: 0.2, max: 2, speed: 0.4, pause: pause, stream: rng.New(seed)}
		bounds.distanceAt(4000)
		var onEdge []units.Second
		for _, seg := range bounds.segments {
			onEdge = append(onEdge, seg.start, units.Second(math.Nextafter(float64(seg.start), 0)), seg.start+seg.duration)
		}
		q := rng.New(99)
		queries := map[string][]units.Second{"boundary": onEdge}
		for i := 0; i < 400; i++ {
			queries["random"] = append(queries["random"], units.Second(4000*q.Float64()))
			queries["monotone"] = append(queries["monotone"], units.Second(i)*9.75)
			tm := units.Second(3600 * q.Float64())
			queries["repeated"] = append(queries["repeated"], tm, tm, tm)
			queries["out-of-order"] = append(queries["out-of-order"], units.Second(4000-i*10), units.Second(i*7))
		}
		for _, name := range []string{"random", "monotone", "repeated", "out-of-order", "boundary"} {
			st := rng.New(seed)
			fast := NewRandomWaypoint(0.2, 2, 0.4, pause, st)
			ref := &refWalk{min: 0.2, max: 2, speed: 0.4, pause: pause, stream: rng.New(seed)}
			for _, tm := range queries[name] {
				got, want := fast.DistanceAt(tm), ref.distanceAt(tm)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("pause %v %s t=%v: %v, want %v", float64(pause), name, float64(tm), got, want)
				}
			}
			if a, b := st.Uint64(), rng.New(seed).Uint64(); a != b {
				t.Errorf("pause %v %s: the walk advanced the caller's stream", float64(pause), name)
			}
		}
	}
}

// BenchmarkRandomWaypointHour is one fleet member's walk over a hub
// hour: a fresh walk queried at the start of each of 12 rounds over
// 3600 s, as hub.Run queries it.
func BenchmarkRandomWaypointHour(b *testing.B) {
	const horizon, rounds = 3600, 12
	st := rng.New(1)
	var sink units.Meter
	for i := 0; i < b.N; i++ {
		w := NewRandomWaypoint(0.2, 2, 0.4, 20, st.Split())
		for r := 0; r < rounds; r++ {
			sink += w.DistanceAt(units.Second(r) * (horizon / rounds))
		}
	}
	walkSink = sink
}

var walkSink units.Meter

func TestRandomWaypointValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"bad bounds": func() { NewRandomWaypoint(2, 1, 1, 0, rng.New(1)) },
		"zero min":   func() { NewRandomWaypoint(0, 1, 1, 0, rng.New(1)) },
		"zero speed": func() { NewRandomWaypoint(1, 2, 0, 0, rng.New(1)) },
		"nil stream": func() { NewRandomWaypoint(1, 2, 1, 0, nil) },
		"neg time":   func() { NewRandomWaypoint(1, 2, 1, 0, rng.New(1)).DistanceAt(-1) },
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
