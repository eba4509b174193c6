package net

import (
	"errors"
	"testing"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// star is a one-hub topology on a phone at the origin.
func star(t testing.TB, members ...Member) *Topology {
	return &Topology{Hubs: []Hub{{Device: dev(t, "iPhone 6S"), Members: members}}}
}

// watchAt is an Apple Watch at (x, 0) offering load.
func watchAt(t testing.TB, x float64, load units.BitRate) Member {
	return Member{Device: dev(t, "Apple Watch"), Pos: field.Vec2{X: x}, Load: load}
}

// permanent is a brownout that lasts the whole run.
func permanent(scale float64, side faults.Side) *faults.Brownout {
	return &faults.Brownout{Duration: 1e9, Scale: scale, Affected: side}
}

// TestWalkerLeavesRange: a walk sets the member's home distance each
// round; a walker that leaves range fails its rounds and is quarantined
// with an error that carries the out-of-range cause, while the static
// member beside it is served throughout.
func TestWalkerLeavesRange(t *testing.T) {
	wanderer := watchAt(t, 0.6, 100000)
	wanderer.Walk = sim.LinearWalk{Start: 0.6, End: 2000, Duration: 1800}
	res := runNet(t, star(t, watchAt(t, 0.4, 5000), wanderer), Config{Workers: 1}, 3600, 12)
	w := &res.Hubs[0].Members[1]
	if !w.Quarantined || res.Quarantines != 1 {
		t.Fatalf("walker at 2 km: quarantined=%v (total %d)", w.Quarantined, res.Quarantines)
	}
	if !errors.Is(w.Err, ErrMemberQuarantined) || !errors.Is(w.Err, core.ErrOutOfRange) {
		t.Errorf("quarantine error %v does not wrap ErrMemberQuarantined and core.ErrOutOfRange", w.Err)
	}
	if w.Bits <= 0 {
		t.Error("walker delivered nothing while still in range")
	}
	if s := &res.Hubs[0].Members[0]; s.Quarantined || s.DirectRounds != 12 {
		t.Errorf("static member: quarantined=%v direct rounds=%d, want 12", s.Quarantined, s.DirectRounds)
	}
}

// TestWalkDistanceClamped: a walk's distance is clamped to MinDistance
// like every derived distance, so a walker standing on its hub plans
// exactly like a static member 1 cm away.
func TestWalkDistanceClamped(t *testing.T) {
	onHub := watchAt(t, 5, 20000) // Pos is ignored for the home distance
	onHub.Walk = sim.StaticWalk(0)
	got := runNet(t, star(t, onHub), Config{Workers: 1}, 600, 2)
	want := runNet(t, star(t, watchAt(t, float64(MinDistance), 20000)), Config{Workers: 1}, 600, 2)
	if got.Digest() != want.Digest() {
		t.Errorf("walker at 0 m diverged from a static member at MinDistance:\n got %+v\nwant %+v", got.Hubs[0], want.Hubs[0])
	}
}

// TestDropoutOutage: a member whose carrier drops out is inactive for
// the round — counted in OutageRounds, traced as EvOutage, and struck.
func TestDropoutOutage(t *testing.T) {
	m := watchAt(t, 0.4, 5000)
	m.Faults = &faults.Dropout{Start: 0, Period: 900, Duration: 300}
	rec := obs.NewRecorder()
	rec.Tracer = obs.NewTracer(64)
	res := runNet(t, star(t, m), Config{Workers: 1, Obs: rec}, 3600, 12) // outages in rounds 0, 3, 6, 9
	mr := &res.Hubs[0].Members[0]
	if mr.OutageRounds != 4 || mr.DirectRounds != 8 {
		t.Errorf("outage rounds %d, direct rounds %d; want 4 and 8", mr.OutageRounds, mr.DirectRounds)
	}
	if mr.Quarantined {
		t.Errorf("isolated outages quarantined the member: %v", mr.Err)
	}
	outages := 0
	for _, ev := range rec.Tracer.Events() {
		if ev.Kind == obs.EvOutage {
			outages++
		}
	}
	if outages != 4 || rec.Snapshot().OutageRounds != 4 {
		t.Errorf("traced %d outages, counted %d; want 4", outages, rec.Snapshot().OutageRounds)
	}

	// An outage is a strike: three consecutive outages (rounds 0–2)
	// exhaust the budget, quarantining the member in round 2.
	m.Faults = &faults.Dropout{Start: 0, Period: 3600, Duration: 900}
	res = runNet(t, star(t, m), Config{Workers: 1}, 3600, 12)
	if mr := &res.Hubs[0].Members[0]; !mr.Quarantined || mr.QuarantinedRound != 2 || !errors.Is(mr.Err, ErrMemberQuarantined) {
		t.Errorf("three-outage run: quarantined=%v round=%d err=%v", mr.Quarantined, mr.QuarantinedRound, mr.Err)
	}
}

// TestOutageSilencesHub: a hub whose only member is in outage does not
// emit, so its neighbor's members neither hear its carrier as
// interference nor ride it.
func TestOutageSilencesHub(t *testing.T) {
	topo := func(inj faults.Injector) *Topology {
		lone := watchAt(t, 0.3, 20000)
		lone.Faults = inj
		return &Topology{Hubs: []Hub{
			{Device: dev(t, "iPhone 6S"), Members: []Member{lone}},
			{Device: dev(t, "iPhone 6S"), Pos: field.Vec2{X: 1.6},
				Members: []Member{watchAt(t, 1.85, 15000), watchAt(t, 1.3, 42000)}},
		}}
	}
	coupled := func(res *Result) int {
		n := 0
		for _, mr := range res.Hubs[1].Members {
			n += mr.SharedRounds + mr.InterferedRounds
		}
		return n
	}
	if n := coupled(runNet(t, topo(nil), Config{Workers: 1}, 300, 1)); n == 0 {
		t.Fatal("neighbor's members never coupled to the emitting hub; test is vacuous")
	}
	res := runNet(t, topo(&faults.Dropout{Start: 0, Period: 1e9, Duration: 300}), Config{Workers: 1}, 300, 1)
	if res.Hubs[0].Members[0].OutageRounds != 1 {
		t.Fatal("lone member had no outage")
	}
	if n := coupled(res); n != 0 {
		t.Errorf("silent hub still coupled to %d neighbor member-rounds", n)
	}
}

// TestBrownoutBilling: a TX brownout bills its extra to the member and
// an RX brownout bills its extra to the home hub, each on top of the
// braid's nominal energy. One round, so both runs plan identically.
func TestBrownoutBilling(t *testing.T) {
	run := func(inj faults.Injector) *HubResult {
		m := watchAt(t, 0.4, 5000)
		m.Faults = inj
		return &runNet(t, star(t, m), Config{Workers: 1}, 300, 1).Hubs[0]
	}
	base := run(nil)
	tx := run(permanent(2, faults.SideTX))
	rx := run(permanent(3, faults.SideRX))
	b := &base.Members[0]
	if b.Bits <= 0 {
		t.Fatal("base round delivered nothing")
	}
	if m := &tx.Members[0]; m.MemberDrain != 2*b.MemberDrain || m.HubDrain != b.HubDrain || tx.Drain != base.Drain || m.Bits != b.Bits {
		t.Errorf("TX×2: member %v hub %v (hub total %v), want member %v hub %v",
			m.MemberDrain, m.HubDrain, tx.Drain, 2*b.MemberDrain, b.HubDrain)
	}
	wantHub := b.HubDrain + b.HubDrain*2
	if m := &rx.Members[0]; m.HubDrain != wantHub || rx.Drain != wantHub || m.MemberDrain != b.MemberDrain || m.Bits != b.Bits {
		t.Errorf("RX×3: member %v hub %v (hub total %v), want member %v hub %v",
			m.MemberDrain, m.HubDrain, rx.Drain, b.MemberDrain, wantHub)
	}
}

// TestRXBrownoutTriggersReplan: the replan shortfall check compares the
// hub's remaining energy against the member's RX-scaled bill. A 10 µWh
// hub (36 mJ) covers the round's 12.8 mJ plan, so without a brownout the
// plan commits as is; tripled by an RX brownout the bill exceeds the
// hub, and the member re-solves against the true remaining energies.
func TestRXBrownoutTriggersReplan(t *testing.T) {
	run := func(inj faults.Injector) *HubResult {
		m := watchAt(t, 0.4, 50000)
		m.Faults = inj
		topo := &Topology{Hubs: []Hub{{
			Device:  energy.Device{Name: "tiny-hub", Capacity: 0.00001, Class: "custom"},
			Members: []Member{m},
		}}}
		return &runNet(t, topo, Config{Workers: 1}, 3600, 1).Hubs[0]
	}
	if base := run(nil); base.Replans != 0 || base.Exhausted {
		t.Fatalf("unscaled round: replans=%d exhausted=%v, want a plan the hub covers", base.Replans, base.Exhausted)
	}
	if rx := run(permanent(3, faults.SideRX)); rx.Replans != 1 {
		t.Errorf("RX×3 round: replans=%d, want 1", rx.Replans)
	}
}

// TestRelayBrownout: the stranded relay member of sparseLine pays its
// hop-1 energy scaled by a TX brownout, and its home hub pays the hop-2
// RX energy scaled by an RX brownout; the via hub's bill is unchanged.
func TestRelayBrownout(t *testing.T) {
	cfg := Config{Workers: 1, DisableInterference: true, DisableCarrierShare: true}
	run := func(inj faults.Injector) *MemberResult {
		topo := sparseLine(t)
		topo.Hubs[0].Members[2].Faults = inj
		return &runNet(t, topo, cfg, 300, 1).Hubs[0].Members[2]
	}
	base := run(nil)
	if base.RelayRounds != 1 {
		t.Fatalf("stranded member relay rounds = %d, want 1", base.RelayRounds)
	}
	tx := run(permanent(2, faults.SideTX))
	if tx.MemberDrain != 2*base.MemberDrain || tx.ViaDrain != base.ViaDrain || tx.HubDrain != base.HubDrain || tx.Bits != base.Bits {
		t.Errorf("TX×2 relay: member %v via %v home %v, want member %v via %v home %v",
			tx.MemberDrain, tx.ViaDrain, tx.HubDrain, 2*base.MemberDrain, base.ViaDrain, base.HubDrain)
	}
	rx := run(permanent(3, faults.SideRX))
	if want := base.HubDrain + base.HubDrain*2; rx.HubDrain != want || rx.ViaDrain != base.ViaDrain || rx.MemberDrain != base.MemberDrain {
		t.Errorf("RX×3 relay: member %v via %v home %v, want member %v via %v home %v",
			rx.MemberDrain, rx.ViaDrain, rx.HubDrain, base.MemberDrain, base.ViaDrain, want)
	}
}

// TestMinRateShedsSlowBackscatter: a member 2 m out with a rate floor
// plans with core.OptimizeQoS and sheds the 10 kbps backscatter slots
// it leans on without the floor.
func TestMinRateShedsSlowBackscatter(t *testing.T) {
	run := func(minRate units.BitRate) *MemberResult {
		m := Member{Device: dev(t, "Nike Fuel Band"), Pos: field.Vec2{X: 2}, Load: 50000, MinRate: minRate}
		mr := &runNet(t, star(t, m), Config{Workers: 1}, 600, 4).Hubs[0].Members[0]
		if mr.Bits <= 0 {
			t.Fatalf("MinRate %v: no bits delivered", float64(minRate))
		}
		return mr
	}
	if mr := run(300000); mr.ModeBits[phy.ModeBackscatter]/mr.Bits > 0.05 {
		t.Errorf("QoS member still used %v backscatter@10k", mr.ModeBits[phy.ModeBackscatter]/mr.Bits)
	}
	if mr := run(0); mr.ModeBits[phy.ModeBackscatter]/mr.Bits < 0.1 {
		t.Errorf("unconstrained member used only %v backscatter", mr.ModeBits[phy.ModeBackscatter]/mr.Bits)
	}
}

// TestValidateWalkersMayCoincide: walkers are exempt from the
// coincident-position check, because their home distance comes from the
// walk; static members are not.
func TestValidateWalkersMayCoincide(t *testing.T) {
	walker := watchAt(t, 0, 1000) // on the hub
	walker.Walk = sim.StaticWalk(0.5)
	other := watchAt(t, 0.5, 1000)
	if err := Validate(star(t, walker, walker, other)); err != nil {
		t.Errorf("walkers on the hub and on each other: %v", err)
	}
	if err := Validate(star(t, other, walker, watchAt(t, 0.5, 2000))); !errors.Is(err, ErrCoincident) {
		t.Errorf("two static members at one position: err = %v, want ErrCoincident", err)
	}
	if err := Validate(star(t, watchAt(t, 0, 1000))); !errors.Is(err, ErrCoincident) {
		t.Errorf("static member on its hub: err = %v, want ErrCoincident", err)
	}
}

// countingInjector is a fault injector that counts its Impair calls.
type countingInjector struct {
	faults.Injector
	calls int
}

func (c *countingInjector) Impair(env *faults.Env) {
	c.calls++
	c.Injector.Impair(env)
}

// TestPlanRoundLeavesFaultsUntouched: PlanRound reads walks at t = 0 and
// never calls a fault injector, so a member in a carrier dropout at
// t = 0 is still planned, and planning a round first does not change
// the Run that follows — here for a Gilbert-Elliott member, whose burst
// state advances on every Impair, beside a random-waypoint walker.
func TestPlanRoundLeavesFaultsUntouched(t *testing.T) {
	topo := func() (*Topology, *countingInjector) {
		ge := watchAt(t, 0.5, 4000)
		spy := &countingInjector{Injector: faults.NewGilbertElliott(0.2, 0.5, 0, 0.4, 99)}
		ge.Faults = spy
		walker := watchAt(t, 0.7, 20000)
		walker.Walk = sim.NewRandomWaypoint(0.2, 2.5, 0.5, 30, rng.New(77))
		dropped := watchAt(t, 0.4, 5000)
		dropped.Faults = &faults.Dropout{Start: 0, Period: 900, Duration: 300}
		return star(t, dropped, ge, walker), spy
	}
	refTopo, _ := topo()
	ref := runNet(t, refTopo, Config{Workers: 1}, 3600, 12)
	tp, spy := topo()
	n, err := New(tp, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.PlanRound(300)
	if err != nil {
		t.Fatal(err)
	}
	if spy.calls != 0 {
		t.Errorf("PlanRound called Impair %d times, want 0", spy.calls)
	}
	if mp := p.Members[0]; mp.Op != OpDirect || !(mp.Bits > 0) {
		t.Errorf("member in a dropout at t = 0 planned %+v, want a direct plan", mp)
	}
	got, err := n.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	if spy.calls != 12 {
		t.Errorf("Run called Impair %d times over 12 rounds, want 12", spy.calls)
	}
	if got.Digest() != ref.Digest() {
		t.Errorf("PlanRound advanced member state: Run after it diverged:\n got %+v\nwant %+v", got.Hubs[0], ref.Hubs[0])
	}
}

// TestRunRepeatIdentical: a Network run twice reproduces itself, so a
// pooled scratch carries nothing from one run into the next.
func TestRunRepeatIdentical(t *testing.T) {
	topo := star(t, watchAt(t, 0.4, 5000), watchAt(t, 0.6, 20000))
	n, err := New(topo, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := n.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest() != second.Digest() {
		t.Errorf("second run diverged:\n got %+v\nwant %+v", second.Hubs[0], first.Hubs[0])
	}
}

// TestNetRoundsCountsMultiHubOnly: NetRounds counts rounds of
// topologies with more than one hub, so a one-hub run — what every
// hub.Run is — records only HubRounds.
func TestNetRoundsCountsMultiHubOnly(t *testing.T) {
	count := func(topo *Topology) (hubRounds, netRounds uint64) {
		rec := obs.NewRecorder()
		runNet(t, topo, Config{Workers: 1, Obs: rec}, 1800, 6)
		s := rec.Snapshot()
		return s.HubRounds, s.NetRounds
	}
	if h, n := count(star(t, watchAt(t, 0.4, 5000))); h != 6 || n != 0 {
		t.Errorf("one hub: HubRounds=%d NetRounds=%d, want 6 and 0", h, n)
	}
	if h, n := count(denseGrid(t)); h != 18 || n != 6 {
		t.Errorf("three hubs: HubRounds=%d NetRounds=%d, want 18 and 6", h, n)
	}
}
