package hub

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// testBuilder builds a shard hub with member count, distances, loads,
// walks, and fault seeds all drawn from the shard's stream — the
// randomized-population shape braidio-sim's -fleet mode uses.
func testBuilder(t testing.TB, members int) Builder {
	t.Helper()
	return func(shard int, stream *rng.Stream) (*Hub, error) {
		h := New(dev(t, "iPhone 6S"), nil)
		for j := 0; j < members; j++ {
			m := Member{
				Device:   dev(t, "Apple Watch"),
				Distance: units.Meter(0.3 + 1.5*stream.Float64()),
				Load:     units.BitRate(1000 + stream.Intn(50000)),
			}
			if stream.Bool() {
				m.Walk = sim.NewRandomWaypoint(0.2, 2.0, 0.4, 20, stream.Split())
			}
			if err := h.Add(m); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
}

// runFleetAt runs a fixed fleet configuration at the given worker count.
func runFleetAt(t *testing.T, workers int) *FleetResult {
	t.Helper()
	f := &Fleet{Shards: 6, Workers: workers, Seed: 42, Build: testBuilder(t, 4)}
	res, err := f.Run(1800, 6)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestFleetBitIdenticalAcrossWorkers: a fleet run is bit-identical at
// any worker count — per-shard substreams plus shard-order merge, the
// same contract the two-phase round engine gives one level down.
func TestFleetBitIdenticalAcrossWorkers(t *testing.T) {
	ref := runFleetAt(t, 1)
	if ref.TotalBits() <= 0 {
		t.Fatal("reference fleet delivered nothing; test is vacuous")
	}
	refNorms := make([]*Result, len(ref.Shards))
	for i, r := range ref.Shards {
		n, _ := normalize(r)
		refNorms[i] = n
	}
	for _, workers := range []int{2, 8} {
		got := runFleetAt(t, workers)
		for i, r := range got.Shards {
			n, _ := normalize(r)
			if !reflect.DeepEqual(refNorms[i], n) {
				t.Errorf("workers=%d shard %d diverged:\n got %+v\nwant %+v", workers, i, n, refNorms[i])
			}
		}
	}
}

// TestFleetSeedDecorrelation: distinct shards draw distinct member
// populations (substreams actually decorrelate), while the same seed
// reproduces the same fleet.
func TestFleetSeedDecorrelation(t *testing.T) {
	res := runFleetAt(t, 1)
	if res.Shards[0].TotalBits() == res.Shards[1].TotalBits() {
		t.Error("shards 0 and 1 delivered identical bits; substreams look correlated")
	}
	again := runFleetAt(t, 4)
	if res.TotalBits() != again.TotalBits() {
		t.Errorf("same seed, different fleets: %v vs %v bits", res.TotalBits(), again.TotalBits())
	}
}

// TestFleetShardErrorIsolated: one shard failing to build leaves a nil
// slot and a joined error, not an aborted fleet.
func TestFleetShardErrorIsolated(t *testing.T) {
	boom := errors.New("boom")
	inner := testBuilder(t, 2)
	f := &Fleet{
		Shards: 4, Workers: 2, Seed: 7,
		Build: func(shard int, stream *rng.Stream) (*Hub, error) {
			if shard == 2 {
				return nil, boom
			}
			return inner(shard, stream)
		},
	}
	res, err := f.Run(600, 3)
	if !errors.Is(err, boom) {
		t.Fatalf("joined error %v does not wrap the shard failure", err)
	}
	if res.Shards[2] != nil {
		t.Error("failed shard left a non-nil result")
	}
	healthy := 0
	for i, r := range res.Shards {
		if i != 2 && r != nil {
			healthy++
		}
	}
	if healthy != 3 {
		t.Errorf("%d healthy shards survived, want 3", healthy)
	}
}

// TestFleetAggregates: the fleet-wide hub drain, exhausted-hub count
// and quarantine count sum the shards' results, skipping failed shards.
func TestFleetAggregates(t *testing.T) {
	f := &Fleet{
		Shards: 4, Workers: 2, Seed: 3,
		Build: func(shard int, stream *rng.Stream) (*Hub, error) {
			switch shard {
			case 1:
				return dyingHub(t), nil
			case 2:
				return nil, errors.New("boom")
			case 3:
				h := bodyNetwork(t)
				err := h.Add(Member{
					Device: dev(t, "Apple Watch"), Distance: 0.6, Load: 5000,
					Walk: sim.LinearWalk{Start: 0.6, End: 2000, Duration: 900},
				})
				return h, err
			}
			return bodyNetwork(t), nil
		},
	}
	res, err := f.Run(1800, 6)
	if err == nil {
		t.Fatal("failed shard reported no error")
	}
	var drain units.Joule
	for _, i := range []int{0, 1, 3} {
		drain += res.Shards[i].HubDrain
	}
	if got := res.HubDrain(); got != drain || drain <= 0 {
		t.Errorf("HubDrain = %v, want the shards' sum %v", got, drain)
	}
	if got := res.Exhausted(); got != 1 || !res.Shards[1].HubExhausted {
		t.Errorf("Exhausted = %d, want 1 (the dying hub)", got)
	}
	if got := res.Quarantines(); got != 1 || res.Shards[3].Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1 (the wanderer)", got)
	}
}

// TestFleetValidation covers the config errors.
func TestFleetValidation(t *testing.T) {
	if _, err := (&Fleet{Shards: 0, Build: testBuilder(t, 1)}).Run(600, 3); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := (&Fleet{Shards: 1}).Run(600, 3); err == nil {
		t.Error("nil builder accepted")
	}
}

// TestFleetRaceSmoke exists for -race runs: many shards over many
// workers, stateful walks included, exercising the sharded link cache
// and the scratch pool concurrently.
func TestFleetRaceSmoke(t *testing.T) {
	f := &Fleet{Shards: 12, Workers: 8, Seed: 5, Build: testBuilder(t, 3)}
	res, err := f.Run(900, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBits() <= 0 {
		t.Fatal("race-smoke fleet delivered nothing")
	}
	if lp, _ := res.Solves(); lp <= 0 {
		t.Error("fleet reported zero LP solves")
	}
}

// BenchmarkFleetHour is the fleet headline workload: 8 hubs × 8 members
// × a simulated hour, every member on a random-waypoint walk so
// distances drift each round. make bench diffs this against the
// committed baseline.
func BenchmarkFleetHour(b *testing.B) {
	build := func(shard int, stream *rng.Stream) (*Hub, error) {
		h := New(dev(b, "iPhone 6S"), nil)
		for j := 0; j < 8; j++ {
			m := Member{
				Device:   dev(b, "Apple Watch"),
				Distance: units.Meter(0.3 + 1.5*stream.Float64()),
				Load:     units.BitRate(1000 + stream.Intn(50000)),
				Walk:     sim.NewRandomWaypoint(0.2, 2.0, 0.4, 20, stream.Split()),
			}
			if err := h.Add(m); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := &Fleet{Shards: 8, Workers: workers, Seed: 42, Build: build}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(3600, 12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleet measures the fleet engine end to end: 8 shards × 4
// members × a simulated hour. make bench diffs this against the
// committed baseline.
func BenchmarkFleet(b *testing.B) {
	build := testBuilder(b, 4)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := &Fleet{Shards: 8, Workers: workers, Seed: 42, Build: build}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(3600, 12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
