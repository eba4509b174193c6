package net

import (
	"fmt"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/field"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// goldenShiftingRun is shiftingKeys' Run digest (3600 s, 12 rounds),
// computed by the engine that derived every link afresh each round.
const goldenShiftingRun = 0x7212062c5877838d

// Solo Run digests of the golden topologies under an ARQ model
// (phy.Model.Retransmit set), from the same engine: the dense grid and
// the sparse line at 1800 s in 6 rounds, shiftingKeys as above.
const (
	goldenDenseARQRun    = 0xa6f72d798ff35246
	goldenSparseARQRun   = 0xc088f7c5a9a64f31
	goldenShiftingARQRun = 0x5e99f214bbf786b4
)

// shiftingKeys is a topology whose link keys change mid-run, so a kept
// link that outlived its key would change the run's bytes:
//   - hubs 0 and 1 are a relay pair 1.6 km apart. Hub 0's third member,
//     1.8 km out, reaches home only through hub 1, 200 m away.
//   - hub 4, 300 m from hub 1, jams both relay hops until its battery
//     dies in round 0. From round 1 its carrier is silent, the first hop
//     and the trunk close, and the stranded member relays.
//   - hubs 2 and 3, 30 km away, are a cluster 1.6 m apart whose members
//     ride each other's carriers. Hub 3's battery dies in round 7, and
//     hub 2's members lose their donor.
//   - hub 5, 500 m from the cluster, dies in round 4. While it emits,
//     hub 2's second member rides hub 3's carrier at 100 kbps, and at
//     1 Mbps once it is silent.
//   - hub 2's third member walks from 0.3 to 1.5 m over the hour while
//     riding hub 3's carrier, so its carrier key's distance changes
//     every round.
func shiftingKeys(t testing.TB) *Topology {
	phone := dev(t, "iPhone 6S")
	watch := dev(t, "Apple Watch")
	weak := func(wh float64) energy.Device { return energy.Device{Name: "weak hub", Capacity: units.WattHour(wh)} }
	m := func(x, y float64, load units.BitRate) Member {
		return Member{Device: watch, Pos: field.Vec2{X: x, Y: y}, Load: load}
	}
	walker := m(30000.2, 0.3, 30000)
	walker.Walk = sim.LinearWalk{Start: 0.3, End: 1.5, Duration: 3600}
	return &Topology{Hubs: []Hub{
		{Device: phone, Pos: field.Vec2{X: 0, Y: 0},
			Members: []Member{m(0, 0.4, 24000), m(0.5, -0.2, 31000), m(1800, 0, 12000)}},
		{Device: phone, Pos: field.Vec2{X: 1600, Y: 0},
			Members: []Member{m(1600, 0.6, 22000), m(1599.2, 0, 36000)}},
		{Device: phone, Pos: field.Vec2{X: 30000, Y: 0},
			Members: []Member{m(30000.3, 0.1, 20000), m(30000, 0.45, 35000), walker}},
		{Device: weak(2e-6), Pos: field.Vec2{X: 30001.6, Y: 0},
			Members: []Member{m(30001.85, 0.1, 15000), m(30001.3, -0.3, 42000)}},
		{Device: weak(1e-7), Pos: field.Vec2{X: 1600, Y: 300},
			Members: []Member{m(1600.2, 300.3, 18000)}},
		{Device: weak(5e-7), Pos: field.Vec2{X: 30000, Y: 500},
			Members: []Member{m(30000.2, 500.3, 18000)}},
	}}
}

// forEachPoint runs f at workers 1, 2 and 8, with the link cache on and
// off.
func forEachPoint(t *testing.T, f func(t *testing.T, workers int)) {
	t.Cleanup(func() { linkcache.SetEnabled(true) })
	for _, cached := range []bool{true, false} {
		for _, workers := range goldenWorkers {
			t.Run(fmt.Sprintf("cached=%v/workers=%d", cached, workers), func(t *testing.T) {
				linkcache.SetEnabled(cached)
				f(t, workers)
			})
		}
	}
}

// TestKeptLinksFollowTheirKeys: phase 0 keeps each link while its key
// repeats. On a topology whose keys change mid-run (a donor that dies,
// a walker riding a shared carrier, a trunk whose interference changes
// when a far hub falls silent) the run matches the digest of an engine
// that derived every link afresh each round.
func TestKeptLinksFollowTheirKeys(t *testing.T) {
	forEachPoint(t, func(t *testing.T, workers int) {
		res := runNet(t, shiftingKeys(t), Config{Workers: workers}, 3600, 12)
		if d := res.Digest(); d != goldenShiftingRun {
			t.Errorf("run digest %#x, pinned %#x", d, uint64(goldenShiftingRun))
		}
		// The keys really do change: otherwise the test is vacuous.
		for h, want := range map[int]int{3: 7, 4: 0, 5: 4} {
			if got := res.Hubs[h].DiedRound; got != want {
				t.Errorf("hub %d died in round %d, want %d", h, got, want)
			}
		}
		if w := &res.Hubs[2].Members[2]; w.SharedRounds == 0 || w.DirectRounds == 0 {
			t.Errorf("walker: %d shared and %d direct rounds, want both", w.SharedRounds, w.DirectRounds)
		}
		if r := &res.Hubs[0].Members[2]; r.RelayRounds != 11 || r.Quarantined {
			t.Errorf("stranded member relayed %d rounds (quarantined %v), want 11", r.RelayRounds, r.Quarantined)
		}
	})
}

// TestScratchPoolKeepsModelsApart: two networks of one geometry and
// different models hear the same interference aggregates, so their
// kept links have the same keys. Run alternately through the scratch
// pool, each still equals its own solo run, as pinned from the engine
// that kept no links: acquire clears every kept link, so no network
// reads a row another model derived. The static goldens end a run on
// the keys the next one starts with, so a scratch that kept its links
// would show there.
func TestScratchPoolKeepsModelsApart(t *testing.T) {
	arq := phy.NewModel()
	arq.Retransmit = true
	cases := []struct {
		topo       func(testing.TB) *Topology
		horizon    units.Second
		rounds     int
		want, arqD uint64 // solo digests under the calibrated and ARQ models
	}{
		{denseGrid, 1800, 6, goldenDenseRun, goldenDenseARQRun},
		{sparseLine, 1800, 6, goldenSparseRun, goldenSparseARQRun},
		{shiftingKeys, 3600, 12, goldenShiftingRun, goldenShiftingARQRun},
	}
	forEachPoint(t, func(t *testing.T, workers int) {
		for ci, tc := range cases {
			topo := tc.topo(t)
			var nets [2]*Network
			for i, model := range []*phy.Model{phy.NewModel(), arq} {
				n, err := New(topo, Config{Model: model, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				nets[i] = n
			}
			for pass := 0; pass < 3; pass++ {
				for i, want := range []uint64{tc.want, tc.arqD} {
					res, err := nets[i].Run(tc.horizon, tc.rounds)
					if err != nil {
						t.Fatal(err)
					}
					if d := res.Digest(); d != want {
						t.Errorf("case %d pass %d: network %d digest %#x, solo %#x", ci, pass, i, d, want)
					}
				}
			}
		}
	})
}
