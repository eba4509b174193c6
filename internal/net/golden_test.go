package net

import (
	"reflect"
	"testing"

	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/linkcache"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Golden digests, pinned on linux/amd64 (the CI architecture; Go's
// float64 arithmetic is deterministic per platform and these workloads
// avoid FMA-sensitive paths). If an intentional engine change moves a
// digest, re-pin it in the same commit and say why in the message.
const (
	goldenDenseRun   = 0x38713a5afdaa207d
	goldenSparseRun  = 0xbced00fedbf7aad7
	goldenDensePlan  = 0xaec2dd38023618a0
	goldenSparsePlan = 0x477b032785b711c2
)

// goldenWorkers is the grid of worker counts every golden topology runs
// at — results must be bit-identical across all of them.
var goldenWorkers = []int{1, 2, 8}

// TestGoldenDeterminism is the golden wall: net.Plan and full fleet
// rounds are bit-identical at any worker count, with the link cache on
// or off, on both golden topologies, and the digests match the pinned
// constants.
func TestGoldenDeterminism(t *testing.T) {
	cases := []struct {
		name              string
		topo              *Topology
		wantRun, wantPlan uint64
	}{
		{"dense-grid", denseGrid(t), goldenDenseRun, goldenDensePlan},
		{"sparse-line", sparseLine(t), goldenSparseRun, goldenSparsePlan},
	}
	type point struct {
		cached  bool
		workers int
	}
	var grid []point
	for _, cached := range []bool{true, false} {
		for _, workers := range goldenWorkers {
			grid = append(grid, point{cached, workers})
		}
	}
	t.Cleanup(func() { linkcache.SetEnabled(true) })
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runRef, planRef uint64
			for gi, pt := range grid {
				linkcache.SetEnabled(pt.cached)
				cfg := Config{Workers: pt.workers}
				res := runNet(t, tc.topo, cfg, 1800, 6)
				n, err := New(tc.topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				p, err := n.PlanRound(300)
				if err != nil {
					t.Fatal(err)
				}
				rd, pd := res.Digest(), p.Digest()
				if gi == 0 {
					runRef, planRef = rd, pd
					if res.TotalBits() <= 0 {
						t.Fatal("golden topology delivered nothing; test is vacuous")
					}
					continue
				}
				if rd != runRef {
					t.Errorf("%+v: run digest %#x != %+v's %#x", pt, rd, grid[0], runRef)
				}
				if pd != planRef {
					t.Errorf("%+v: plan digest %#x != %+v's %#x", pt, pd, grid[0], planRef)
				}
			}
			if tc.wantRun != 0 && runRef != tc.wantRun {
				t.Errorf("run digest %#x, pinned %#x", runRef, tc.wantRun)
			}
			if tc.wantPlan != 0 && planRef != tc.wantPlan {
				t.Errorf("plan digest %#x, pinned %#x", planRef, tc.wantPlan)
			}
			t.Logf("run=%#x plan=%#x", runRef, planRef)
		})
	}
}

// TestGoldenSparseRelayDelivers pins the acceptance demo: the stranded
// member (hub 0, member 2) is unreachable directly — its home hub is
// 1800 m away, past the 1772.9 m active range — yet delivers its bits
// through the 2-hop relay, and every delivered bit is a relayed bit.
func TestGoldenSparseRelayDelivers(t *testing.T) {
	topo := sparseLine(t)
	res := runNet(t, topo, Config{Workers: 4}, 1800, 6)
	mr := &res.Hubs[0].Members[2]
	if mr.Bits <= 0 {
		t.Fatalf("stranded member delivered nothing: %+v", mr)
	}
	if mr.RelayBits != mr.Bits {
		t.Errorf("stranded member: %v of %v bits relayed, want all", mr.RelayBits, mr.Bits)
	}
	if mr.RelayRounds == 0 || mr.DirectRounds != 0 {
		t.Errorf("stranded member rounds: relay=%d direct=%d, want all relay", mr.RelayRounds, mr.DirectRounds)
	}
	// Direct really is infeasible: with relays disabled the member
	// delivers nothing and is quarantined.
	noRelay := runNet(t, topo, Config{Workers: 4, DisableRelay: true}, 1800, 6)
	nr := &noRelay.Hubs[0].Members[2]
	if nr.Bits != 0 || !nr.Quarantined {
		t.Errorf("without relays the stranded member should starve: bits=%v quarantined=%v", nr.Bits, nr.Quarantined)
	}
	// And somebody paid the forwarding bill: the via hub's drain exceeds
	// what its own members cost it.
	if res.Hubs[0].Members[2].ViaDrain <= 0 {
		t.Error("relay rounds recorded but no via-hub drain billed")
	}
}

// TestGoldenDenseCouplings: the dense grid actually exercises both
// couplings — carrier-shared rounds occur, and interference is seen at
// every hub (three concurrent carriers ~2 m apart).
func TestGoldenDenseCouplings(t *testing.T) {
	res := runNet(t, denseGrid(t), Config{Workers: 2}, 1800, 6)
	if res.SharedRounds == 0 {
		t.Error("dense grid produced no carrier-shared rounds")
	}
	if res.InterferedRounds == 0 {
		t.Error("dense grid produced no interfered rounds")
	}
	if res.TotalBits() <= 0 {
		t.Error("dense grid delivered nothing under interference")
	}
	// Turning interference off must not *reduce* anyone's delivered
	// bits: the clean channel dominates the interfered one.
	clean := runNet(t, denseGrid(t), Config{Workers: 2, DisableInterference: true}, 1800, 6)
	if clean.TotalBits() < res.TotalBits()*0.999 {
		t.Errorf("clean channel delivered %v bits < interfered %v", clean.TotalBits(), res.TotalBits())
	}
}

// TestRunLeavesCachedRowsIntact: the link rows a round reads from the
// cache are shared, so a carrier-shared slot substitutes its bistatic
// link in a copy. After a run every slot's row still equals a direct
// characterization under the slot's interference.
func TestRunLeavesCachedRowsIntact(t *testing.T) {
	n, err := New(denseGrid(t), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.PlanRound(300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(1800, 6); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, mp := range p.Members {
		if mp.Op == OpShared {
			shared++
		}
		d := n.seeds[i].homeDist
		raised := *n.model
		raised.Interference += mp.InterferenceMW
		if got, want := n.view.CharacterizeAt(d, mp.InterferenceMW), raised.Characterize(d); !reflect.DeepEqual(got, want) {
			t.Errorf("slot %d (%v): cached row %+v, want %+v", i, mp.Op, got, want)
		}
	}
	if shared == 0 {
		t.Fatal("dense grid planned no carrier-shared slot; test is vacuous")
	}
}

// TestPrivateRoundsSolveAfresh: every dense-grid slot is interfered or
// carrier-shared, and such rounds run with the allocation memo off, so
// even a loose re-solve tolerance reuses no allocation.
func TestPrivateRoundsSolveAfresh(t *testing.T) {
	res := runNet(t, denseGrid(t), Config{Workers: 1, AllocationTolerance: 0.5}, 1800, 6)
	solves := 0
	for h := range res.Hubs {
		hr := &res.Hubs[h]
		solves += hr.LPSolves
		if hr.AllocReuses != 0 {
			t.Errorf("hub %d reused %d allocations on interfered or shared rounds", h, hr.AllocReuses)
		}
	}
	if solves == 0 {
		t.Fatal("dense grid solved nothing; test is vacuous")
	}
}

// TestPrivateRoundIgnoresIsolatedMemo: an interferer too faint to move
// the model's ambient Interference sum makes a slot's interfered row the
// very slice its isolated round memoized. The interfered round must
// still solve afresh, so the run equals the cache-off run, where every
// round's row is a new slice. Hub 1 sits 1e110 m away and its only
// member drops out in round 0, so hub 0's member is isolated in round 0
// and interfered from round 1.
func TestPrivateRoundIgnoresIsolatedMemo(t *testing.T) {
	t.Cleanup(func() { linkcache.SetEnabled(true) })
	m := phy.NewModel()
	m.Interference = 1e-200
	phone, watch := dev(t, "iPhone 6S"), dev(t, "Apple Watch")
	topo := &Topology{Hubs: []Hub{
		{Device: phone, Members: []Member{{Device: watch, Pos: field.Vec2{X: 0.4}, Load: 20000}}},
		{Device: phone, Pos: field.Vec2{X: 1e110}, Members: []Member{{Device: watch, Pos: field.Vec2{X: 1e110, Y: 0.4}, Load: 20000}}},
	}}
	run := func(cached bool) *Result {
		linkcache.SetEnabled(cached)
		topo.Hubs[1].Members[0].Faults = &faults.Dropout{Period: 1e9, Duration: 100} // fresh state per run
		return runNet(t, topo, Config{Model: m, Workers: 1, AllocationTolerance: 0.5}, 1800, 6)
	}
	on, off := run(true), run(false)
	if on.InterferedRounds == 0 {
		t.Fatal("no interfered rounds; test is vacuous")
	}
	if on.Digest() != off.Digest() {
		t.Errorf("cache on: hub 0 %d solves / %d reuses; cache off: %d / %d",
			on.Hubs[0].LPSolves, on.Hubs[0].AllocReuses, off.Hubs[0].LPSolves, off.Hubs[0].AllocReuses)
	}
}

// TestRunRejectsBadArgs covers the run-parameter validation.
func TestRunRejectsBadArgs(t *testing.T) {
	n, err := New(denseGrid(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		horizon units.Second
		rounds  int
	}{{0, 6}, {-10, 6}, {1800, 0}, {1800, -2}} {
		if _, err := n.Run(tc.horizon, tc.rounds); err == nil {
			t.Errorf("Run(%v, %d) accepted", float64(tc.horizon), tc.rounds)
		}
	}
	if _, err := n.PlanRound(-1); err == nil {
		t.Error("PlanRound(-1) accepted")
	}
}
