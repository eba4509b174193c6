package net

import (
	"fmt"
	"math"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Op is the per-member operation the planner chose for a round.
type Op uint8

const (
	// OpSkip: the member was not served (dead home hub, quarantined, or
	// starved).
	OpSkip Op = iota
	// OpDirect: ordinary braid to the home hub on its own carrier.
	OpDirect
	// OpShared: braid to the home hub riding a neighbor hub's carrier
	// for the backscatter mode.
	OpShared
	// OpRelay: 2-hop forwarding through a foreign hub.
	OpRelay
	// OpUnreachable: no direct link closes and no relay is available.
	OpUnreachable
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpSkip:
		return "skip"
	case OpDirect:
		return "direct"
	case OpShared:
		return "shared"
	case OpRelay:
		return "relay"
	case OpUnreachable:
		return "unreachable"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MemberPlan is one member's appraised round in a RoundPlan.
type MemberPlan struct {
	// Hub and Member locate the slot in the topology.
	Hub, Member int
	// Op is the chosen operation.
	Op Op
	// Donor is the carrier-donor hub for OpShared (-1 otherwise).
	Donor int
	// Via is the relay hub for OpRelay (-1 otherwise).
	Via int
	// InterferenceMW is the aggregate co-channel carrier power (linear
	// milliwatts) at the receiver serving this member.
	InterferenceMW float64
	// DirectTX is the member's appraised energy per bit on the direct
	// path (+Inf when no direct link closes); RelayTX is the same for
	// the best relay candidate (+Inf when none).
	DirectTX, RelayTX units.JoulesPerBit
	// Bits is the payload the chosen operation would deliver this round.
	Bits float64
}

// RoundPlan is the appraisal of one network round against fresh
// batteries: which hubs emit, and what every member would do. Nothing
// is drained — PlanRound is the pure, fuzzable view of the scheduler.
type RoundPlan struct {
	// Emitting flags the hubs whose carrier is on the air this round.
	Emitting []bool
	// Members holds one plan per (hub, member) slot, in topology order.
	Members []MemberPlan
}

// PlanRound appraises one round of length slice against fresh
// batteries without draining anything. Walkers stand where their walks
// put them at t = 0; fault injectors are not consulted, so PlanRound
// leaves their state untouched.
func (n *Network) PlanRound(slice units.Second) (*RoundPlan, error) {
	if !(float64(slice) > 0) || math.IsInf(float64(slice), 1) {
		return nil, fmt.Errorf("%w: slice %v", ErrBadRun, float64(slice))
	}
	hubBatts, memberBatts := n.newBatteries()
	res := n.newResult(slice, 1)
	sc := n.acquire()
	defer scratchPool.Put(sc)
	n.phase0(sc, res, hubBatts, memberBatts, 0, false)
	par.For(n.cfg.Workers, len(sc.slots), func(i int) {
		n.planSlot(sc, i, memberBatts, slice, true, false)
	})
	p := &RoundPlan{
		Emitting: make([]bool, len(sc.hubs)),
		Members:  make([]MemberPlan, len(sc.slots)),
	}
	for h := range sc.hubs {
		p.Emitting[h] = sc.hubs[h].emitting
	}
	for i := range sc.slots {
		s := &sc.slots[i]
		mp := MemberPlan{
			Hub: s.hub, Member: s.member,
			Op: s.op, Donor: -1, Via: -1,
			InterferenceMW: s.mw,
			DirectTX:       units.JoulesPerBit(math.Inf(1)),
			RelayTX:        units.JoulesPerBit(math.Inf(1)),
		}
		if s.active {
			mp.DirectTX = units.JoulesPerBit(s.directTX)
			if s.relay.ok {
				mp.RelayTX = units.JoulesPerBit(s.relay.txPerBit)
			}
			switch s.op {
			case OpShared:
				mp.Donor = s.donor
				mp.Bits = s.directBits
			case OpDirect:
				mp.Bits = s.directBits
			case OpRelay:
				mp.Via = s.relay.via
				mp.Bits = s.relay.bits
			}
		}
		p.Members[i] = mp
	}
	return p, nil
}

// phase0 is the sequential round prologue at time now: hub liveness and
// energy snapshots, member eligibility, walks, faults (when impair is
// set), the emission census, the round's interference and trunk tables,
// donor selection, and link construction. A member whose carrier drops
// out is an outage: inactive for the round. Every active slot reads its
// row for its distance and interference through the view without
// storing it there (a walker's distance never repeats), keeping the row
// while that key repeats; a carrier-shared slot copies that row into
// slot.priv to substitute the bistatic link.
func (n *Network) phase0(sc *scratch, res *Result, hubBatts, memberBatts []*energy.Battery, now units.Second, impair bool) {
	for h := range sc.hubs {
		hs := &sc.hubs[h]
		hs.alive = !hubBatts[h].Empty()
		hs.emitting = false
		hs.snap = *hubBatts[h]
	}
	// Pass A: eligibility, walks and faults, and the emission census.
	for i := range sc.slots {
		s := &sc.slots[i]
		mr := &res.Hubs[s.hub].Members[s.member]
		s.err = nil
		s.active = false
		s.outage = false
		s.mw = 0
		s.donor = -1
		s.sharedOK = false
		s.op = OpSkip
		s.links = nil
		s.braid.Links = nil
		s.relay = relayPlan{via: -1}
		s.directTX = math.Inf(1)
		s.directBits = 0
		s.txScale, s.rxScale = 1, 1
		s.skipQuarantined = mr.Quarantined
		s.skipStarved = !mr.Quarantined && memberBatts[i].Empty()
		if !sc.hubs[s.hub].alive || s.skipQuarantined || s.skipStarved {
			continue
		}
		s.dist = s.homeDist
		if s.m.Walk != nil {
			s.dist = clampDist(float64(s.m.Walk.DistanceAt(now)))
		}
		if impair && s.m.Faults != nil {
			sc.env.Reset(now, phy.ModeActive, units.Rate1M, 0)
			s.m.Faults.Impair(&sc.env)
			if sc.env.CarrierLost {
				s.outage = true
				continue
			}
			s.txScale, s.rxScale = sc.env.TXDrain, sc.env.RXDrain
		}
		s.active = true
		sc.hubs[s.hub].emitting = true
	}
	n.tables(sc)
	// Pass B: donors, interference, and links.
	nh := len(sc.hubs)
	for i := range sc.slots {
		s := &sc.slots[i]
		if !s.active {
			continue
		}
		n.pickDonor(sc, s)
		if s.donor < 0 {
			s.mw = sc.imw[s.hub*nh+s.hub]
		}
		s.links = s.home.at(s.dist, s.mw, n.view.Read)
		if s.sharedOK {
			// Replace the monostatic backscatter entry (canonical mode
			// order puts it last) with the donor-carrier bistatic link;
			// if the monostatic round trip did not close, append.
			s.priv = append(s.priv[:0], s.links...)
			if k := len(s.priv); k > 0 && s.priv[k-1].Mode == phy.ModeBackscatter {
				s.priv[k-1] = s.carrier.link
			} else {
				s.priv = append(s.priv, s.carrier.link)
			}
			s.links = s.priv
		}
	}
}

// tables fills the round's interference table from the emission
// census: for every alive receiver, the aggregate with each emitting
// hub excluded and with none (excluding a hub that does not emit
// excludes nothing). Every entry is interferenceAt's sum in hub order,
// so it equals, bit for bit, what a per-slot sum would give. It then
// brings up to date the trunk rows this round's relay appraisals read:
// every alive via toward every emitting home.
func (n *Network) tables(sc *scratch) {
	nh := len(sc.hubs)
	for rx := range sc.hubs {
		if !sc.hubs[rx].alive {
			continue
		}
		row := sc.imw[rx*nh : (rx+1)*nh]
		if n.cfg.DisableInterference {
			clear(row)
			continue
		}
		all := n.interferenceAt(sc, rx, -1)
		for x := range row {
			row[x] = all
			if x != rx && sc.hubs[x].emitting {
				row[x] = n.interferenceAt(sc, rx, x)
			}
		}
	}
	if len(sc.trunk) == 0 {
		return
	}
	for home := range sc.hubs {
		if !sc.hubs[home].emitting {
			continue
		}
		for v := range sc.hubs {
			if v != home && sc.hubs[v].alive {
				sc.trunk[v*nh+home].at(n.hubDist[v][home], sc.imw[home*nh+v], n.view.CharacterizeAt)
			}
		}
	}
}

// pickDonor selects the slot's carrier donor: the nearest emitting
// foreign hub within the carrier-share radius whose bistatic budget
// actually closes at this geometry (under the interference the member's
// home receiver would then see). No donor is chosen when the budget
// refuses — the nearest-first scan does not fall back to farther
// donors, keeping the policy trivially deterministic. The budget is
// derived again only when the slot's carrier key changes.
func (n *Network) pickDonor(sc *scratch, s *slot) {
	if n.cfg.DisableCarrierShare {
		return
	}
	best, bestD := -1, carrierShareRange
	for v := range sc.hubs {
		if v == s.hub || !sc.hubs[v].emitting {
			continue
		}
		if d := s.toHub[v]; d < bestD {
			best, bestD = v, d
		}
	}
	if best < 0 {
		return
	}
	mw := sc.imw[s.hub*len(sc.hubs)+best]
	c := &s.carrier
	if !c.set || c.donor != best || c.d != s.dist || c.mw != mw {
		mi := *n.model
		mi.Interference = n.model.Interference + mw
		link, ok := mi.SharedCarrierLink(s.toHub[best], s.dist)
		*c = carrierLink{link: link, ok: ok, set: true, donor: best, d: s.dist, mw: mw}
	}
	if c.ok {
		s.donor = best
		s.mw = mw
		s.sharedOK = true
	}
}

// planSlot is the parallel plan phase for one slot: appraise direct
// versus relay (when appraise is set), then — for non-relay ops when
// execute is set — run the member's braid against copies of its battery
// and the home hub's round-start snapshot. It writes only slot-owned
// state.
func (n *Network) planSlot(sc *scratch, i int, memberBatts []*energy.Battery, slice units.Second, appraise, execute bool) {
	s := &sc.slots[i]
	if !s.active {
		return
	}
	hs := &sc.hubs[s.hub]
	s.op = OpDirect
	if s.sharedOK {
		s.op = OpShared
	}
	load := float64(s.m.Load) * float64(slice)
	e1, e2 := memberBatts[i].Remaining(), hs.snap.Remaining()
	if appraise {
		if len(s.links) > 0 {
			if err := core.OptimizeInto(&s.alloc, nil, s.links, e1, e2); err == nil {
				s.directTX = float64(s.alloc.TX)
				s.directBits = math.Min(load, s.alloc.Bits)
			}
		}
		if !n.cfg.DisableRelay {
			n.appraiseRelay(sc, s, e1, load)
			if s.relay.ok && (math.IsInf(s.directTX, 1) || s.relay.txPerBit < s.directTX) {
				s.op = OpRelay
			}
		}
		if s.op != OpRelay && math.IsInf(s.directTX, 1) && !execute {
			s.op = OpUnreachable
		}
	}
	if !execute || s.op == OpRelay {
		return
	}
	s.braid.Distance = s.dist
	s.braid.MaxBits = load
	s.planB1 = *memberBatts[i]
	s.planB2 = hs.snap
	if len(s.links) == 0 {
		// An empty canonical slice would make the braid re-characterize
		// internally; on the private path that would silently drop the
		// interference. Fail the round with the braid's own verdict.
		s.err = core.ErrOutOfRange
		return
	}
	s.braid.Links = s.links
	s.err = s.braid.RunInto(&s.plan, &s.scr, &s.planB1, &s.planB2)
}

// appraiseRelay searches the slot's 2-hop forwarding candidates: for
// every alive foreign hub, chain Optimize(member→via) with
// Optimize(via→home) against the round-start snapshots and keep the
// candidate minimizing the member's energy per bit (strict improvement,
// lowest hub index on ties). The planned bits are bounded by the load,
// the member's hop-1 budget, the via's combined hop-1 RX + hop-2 TX
// budget (one battery pays both), and the home hub's hop-2 RX budget.
// The hop-1 row under the via's interference is the slot's kept row,
// and the hop-2 row is phase 0's trunk row (the via's own carrier
// excluded: it is the transmitter); both are shared and read-only.
func (n *Network) appraiseRelay(sc *scratch, s *slot, e1 units.Joule, load float64) {
	home := s.hub
	nh := len(sc.hubs)
	eHome := sc.hubs[home].snap.Remaining()
	bestTX := math.Inf(1)
	for v := range sc.hubs {
		if v == home || !sc.hubs[v].alive {
			continue
		}
		eVia := sc.hubs[v].snap.Remaining()
		links1 := s.hop1[v].at(s.toHub[v], sc.imw[v*nh+v], n.view.CharacterizeAt)
		if len(links1) == 0 {
			continue
		}
		if err := core.OptimizeInto(&s.alloc, nil, links1, e1, eVia); err != nil {
			continue
		}
		if !(float64(s.alloc.TX) < bestTX) {
			continue
		}
		links2 := sc.trunk[v*nh+home].row
		if len(links2) == 0 {
			continue
		}
		if err := core.OptimizeInto(&s.alloc2, nil, links2, eVia, eHome); err != nil {
			continue
		}
		rp := relayPlan{
			ok:        true,
			via:       v,
			txPerBit:  float64(s.alloc.TX),
			viaPerBit: float64(s.alloc.RX) + float64(s.alloc2.TX),
			rxPerBit:  float64(s.alloc2.RX),
		}
		bits := load
		if c := float64(e1) / rp.txPerBit; c < bits {
			bits = c
		}
		if c := float64(eVia) / rp.viaPerBit; c < bits {
			bits = c
		}
		if c := float64(eHome) / rp.rxPerBit; c < bits {
			bits = c
		}
		rp.bits = bits
		for k := range s.alloc.Links {
			rp.modeShare[s.alloc.Links[k].Mode] += s.alloc.P[k]
		}
		s.relay = rp
		bestTX = rp.txPerBit
	}
}
