package net

import (
	"errors"
	"math"
	"testing"

	"braidio/internal/core"
	"braidio/internal/field"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// TestRelayAccountingDifferential is the satellite differential: the
// 2-hop relay's energy accounting equals the sum of the two single-hop
// core.Optimize solves — bit for bit, with no hub drain double-counted.
// The network's appraisal is recomputed here from first principles
// (two chained Optimize calls over the canonical characterizations)
// and every committed joule is checked against it.
func TestRelayAccountingDifferential(t *testing.T) {
	topo := sparseLine(t)
	cfg := Config{Workers: 1, DisableInterference: true, DisableCarrierShare: true}
	const slice = units.Second(300)

	p, err := Plan(topo, cfg, slice)
	if err != nil {
		t.Fatal(err)
	}
	// The stranded member is slot 2 (hub 0, member 2).
	mp := p.Members[2]
	if mp.Op != OpRelay || mp.Via != 1 {
		t.Fatalf("stranded member plan = %+v, want relay via hub 1", mp)
	}
	if !math.IsInf(float64(mp.DirectTX), 1) {
		t.Fatalf("direct path at 1800 m should be infeasible, got %v J/bit", float64(mp.DirectTX))
	}

	// First principles: hop 1 member→via, hop 2 via→home, both against
	// the round-start (full) budgets.
	model := phy.NewModel()
	home, via := &topo.Hubs[0], &topo.Hubs[1]
	stranded := &home.Members[2]
	e1 := stranded.Device.Capacity.Joules()
	eVia := via.Device.Capacity.Joules()
	eHome := home.Device.Capacity.Joules()
	a1, err := core.Optimize(model.Characterize(clampDist(stranded.Pos.Dist(via.Pos))), e1, eVia)
	if err != nil {
		t.Fatalf("hop 1 solve: %v", err)
	}
	a2, err := core.Optimize(model.Characterize(clampDist(via.Pos.Dist(home.Pos))), eVia, eHome)
	if err != nil {
		t.Fatalf("hop 2 solve: %v", err)
	}
	if math.Float64bits(float64(mp.RelayTX)) != math.Float64bits(float64(a1.TX)) {
		t.Errorf("plan RelayTX %v != hop-1 solve TX %v", float64(mp.RelayTX), float64(a1.TX))
	}
	viaPerBit := float64(a1.RX) + float64(a2.TX)
	wantB := float64(stranded.Load) * float64(slice)
	for _, c := range []float64{
		float64(e1) / float64(a1.TX),
		float64(eVia) / viaPerBit,
		float64(eHome) / float64(a2.RX),
	} {
		if c < wantB {
			wantB = c
		}
	}
	if math.Float64bits(mp.Bits) != math.Float64bits(wantB) {
		t.Errorf("plan bits %v != recomputed bound %v", mp.Bits, wantB)
	}

	// One committed round bills exactly those prices to exactly those
	// batteries.
	res := runNet(t, topo, cfg, slice, 1)
	mr := &res.Hubs[0].Members[2]
	bitsEq := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	bitsEq("relayed bits", mr.Bits, wantB)
	bitsEq("RelayBits", mr.RelayBits, wantB)
	bitsEq("member drain", float64(mr.MemberDrain), wantB*float64(a1.TX))
	bitsEq("via drain", float64(mr.ViaDrain), wantB*viaPerBit)
	bitsEq("home drain", float64(mr.HubDrain), wantB*float64(a2.RX))
	bitsEq("result RelayBits", res.RelayBits, wantB)

	// No double-counting: the via hub's total drain is its own members'
	// bills plus exactly the relay's middle legs, and the home hub's is
	// its members' bills plus exactly the hop-2 RX.
	// (summed in commit order: hub 0's slots — including the relay's
	// forwarding bill — commit before hub 1's own members).
	viaTotal := wantB * viaPerBit
	for j := range res.Hubs[1].Members {
		viaTotal += float64(res.Hubs[1].Members[j].HubDrain)
	}
	bitsEq("via hub total", float64(res.Hubs[1].Drain), viaTotal)
	ownHome := 0.0
	for j := range res.Hubs[0].Members {
		ownHome += float64(res.Hubs[0].Members[j].HubDrain)
	}
	if got := float64(res.Hubs[0].Drain); got != ownHome {
		t.Errorf("home hub drain %v != sum of member bills %v", got, ownHome)
	}

	// Conservation: everything anyone spent on the relay is the two
	// solves' per-bit totals times the bits.
	total := float64(mr.MemberDrain) + float64(mr.ViaDrain) + float64(mr.HubDrain)
	want := wantB * (float64(a1.TX) + float64(a1.RX) + float64(a2.TX) + float64(a2.RX))
	if math.Abs(total-want) > 1e-9*want {
		t.Errorf("relay energy %v J != per-hop sum %v J", total, want)
	}
}

// TestRelayModeAttribution: relayed bits are attributed to modes by the
// member-side hop's allocation mix.
func TestRelayModeAttribution(t *testing.T) {
	topo := sparseLine(t)
	res := runNet(t, topo, Config{Workers: 1, DisableInterference: true, DisableCarrierShare: true}, 300, 1)
	mr := &res.Hubs[0].Members[2]
	sum := 0.0
	for _, b := range mr.ModeBits {
		sum += b
	}
	if math.Abs(sum-mr.Bits) > 1e-6*mr.Bits {
		t.Errorf("mode attribution %v != delivered %v", sum, mr.Bits)
	}
	// A 200 m hop is active-only: everything rides the active radio.
	if mr.ModeBits[phy.ModeActive] != sum {
		t.Errorf("200 m hop attributed off the active mode: %v", mr.ModeBits)
	}
}

// TestDegenerateGeometry is the coincident-position guard: distinct but
// sub-millimeter separations clamp to the 1 cm near field and plan
// finite numbers, while exact duplicates are a typed error.
func TestDegenerateGeometry(t *testing.T) {
	hubDev := dev(t, "iPhone 6S")
	watch := dev(t, "Apple Watch")
	near := &Topology{Hubs: []Hub{{
		Device: hubDev, Pos: field.Vec2{X: 0, Y: 0},
		Members: []Member{
			{Device: watch, Pos: field.Vec2{X: 1e-12, Y: 0}, Load: 1000},       // on top of the hub
			{Device: watch, Pos: field.Vec2{X: 1e-12, Y: 1e-12}, Load: 2000},   // on top of the other member
			{Device: watch, Pos: field.Vec2{X: -1e-300, Y: 1e-300}, Load: 500}, // denormal offsets
		},
	}}}
	p, err := Plan(near, Config{}, 300)
	if err != nil {
		t.Fatalf("near-coincident plan: %v", err)
	}
	for i, mp := range p.Members {
		if math.IsNaN(float64(mp.DirectTX)) || math.IsNaN(mp.Bits) || math.IsNaN(mp.InterferenceMW) {
			t.Errorf("member %d: NaN in plan %+v", i, mp)
		}
		if !(mp.Bits > 0) {
			t.Errorf("member %d at the hub's feet delivered no plan bits: %+v", i, mp)
		}
	}
	// And the engine runs it without panicking or NaN-ing.
	res := runNet(t, near, Config{}, 300, 1)
	if math.IsNaN(res.TotalBits()) || res.TotalBits() <= 0 {
		t.Errorf("degenerate run delivered %v bits", res.TotalBits())
	}

	dupMember := &Topology{Hubs: []Hub{{
		Device: hubDev, Pos: field.Vec2{X: 0, Y: 0},
		Members: []Member{
			{Device: watch, Pos: field.Vec2{X: 0.5, Y: 0}, Load: 1000},
			{Device: watch, Pos: field.Vec2{X: 0.5, Y: 0}, Load: 2000},
		},
	}}}
	if _, err := Plan(dupMember, Config{}, 300); !errors.Is(err, ErrCoincident) {
		t.Errorf("duplicate member positions: err = %v, want ErrCoincident", err)
	}
	dupHub := &Topology{Hubs: []Hub{
		{Device: hubDev, Pos: field.Vec2{X: 0, Y: 0},
			Members: []Member{{Device: watch, Pos: field.Vec2{X: 0.5, Y: 0}, Load: 1000}}},
		{Device: hubDev, Pos: field.Vec2{X: 0, Y: 0},
			Members: []Member{{Device: watch, Pos: field.Vec2{X: -0.5, Y: 0}, Load: 1000}}},
	}}
	if _, err := Plan(dupHub, Config{}, 300); !errors.Is(err, ErrCoincident) {
		t.Errorf("duplicate hub positions: err = %v, want ErrCoincident", err)
	}
	memberOnHub := &Topology{Hubs: []Hub{{
		Device: hubDev, Pos: field.Vec2{X: 0, Y: 0},
		Members: []Member{{Device: watch, Pos: field.Vec2{X: 0, Y: 0}, Load: 1000}},
	}}}
	if _, err := Plan(memberOnHub, Config{}, 300); !errors.Is(err, ErrCoincident) {
		t.Errorf("member on its hub: err = %v, want ErrCoincident", err)
	}
}
