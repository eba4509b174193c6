//go:build !race

package sim

import (
	"testing"

	"braidio/internal/energy"
	"braidio/internal/phy"
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

// bidirectionalCellAllocs caps one Fig. 17 cell's allocations: the two
// batteries, the chunk-sizing solve and the result, plus the scratch's
// buffers on the first chunk. It does not grow with the cell's ~50 role
// swaps.
const bidirectionalCellAllocs = 10

// TestRunBidirectionalCellAllocs: every role-swap chunk of a Fig. 17
// cell runs through one braid, one scratch and one result, so a cell's
// allocations stay under a constant for every catalog pair at 0.5 m,
// however many chunks it runs. (Skipped under the race detector, which
// instruments allocations.)
func TestRunBidirectionalCellAllocs(t *testing.T) {
	m := phy.NewModel()
	for _, a := range energy.Catalog {
		for _, b := range energy.Catalog {
			var rounds int
			allocs := testing.AllocsPerRun(3, func() {
				r, err := RunBidirectional(m, 0.5, a, b)
				if err != nil {
					t.Fatal(err)
				}
				rounds = r.Rounds
			})
			if rounds <= 2*bidirectionalCellAllocs {
				t.Errorf("%s↔%s: %d role swaps; the cap must sit well below the chunk count", a.Name, b.Name, rounds)
			}
			if allocs > bidirectionalCellAllocs {
				t.Errorf("%s↔%s: %v allocations over %d role swaps, want at most %d",
					a.Name, b.Name, allocs, rounds, bidirectionalCellAllocs)
			}
		}
	}
}
