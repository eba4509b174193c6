//go:build !race

package sim

import (
	"testing"

	"braidio/internal/rng"
	"braidio/internal/units"
)

// TestRandomWaypointHourZeroAlloc: after NewRandomWaypoint, a fresh walk
// answers an hour's round-start queries, and a replay from t = 0 after
// them, without allocating. Each run takes a walk built beforehand, so
// only the queries are counted. (Skipped under the race detector, which
// instruments allocations.)
func TestRandomWaypointHourZeroAlloc(t *testing.T) {
	const horizon, rounds, runs = 3600, 12, 100
	st := rng.New(1)
	walks := make([]*RandomWaypoint, runs+1) // AllocsPerRun adds a warm-up run
	for i := range walks {
		walks[i] = NewRandomWaypoint(0.2, 2, 0.4, 20, st.Split())
	}
	var sink units.Meter
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		w := walks[next]
		next++
		for r := 0; r < rounds; r++ {
			sink += w.DistanceAt(units.Second(r) * (horizon / rounds))
		}
		sink += w.DistanceAt(0)
	})
	walkSink = sink
	if allocs != 0 {
		t.Errorf("an hour of walk queries allocated %v times, want 0", allocs)
	}
}
