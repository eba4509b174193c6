package net

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"braidio/internal/energy"
	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// MemberResult is one member's share of a network run.
type MemberResult struct {
	// Member is the topology entry this result describes.
	Member Member
	// Bits delivered from the member to its home hub (directly or
	// through a relay); RelayBits is the relayed subset.
	Bits, RelayBits float64
	// MemberDrain is the member's radio energy. HubDrain is the home
	// hub's energy on this member's traffic; ViaDrain the relay hubs'.
	MemberDrain, HubDrain, ViaDrain units.Joule
	// ModeBits attributes delivered bits to modes, indexed by phy.Mode.
	// Relayed bits are attributed by the member-side hop's mix.
	ModeBits [phy.NumModes]float64
	// Round tallies by operation, plus rounds served under nonzero
	// interference.
	DirectRounds, SharedRounds, RelayRounds, InterferedRounds int
	// Starved reports the member's battery died before the horizon.
	Starved bool
	// Quarantined reports the member was removed from scheduling; Err
	// then wraps ErrMemberQuarantined and the cause.
	Quarantined      bool
	QuarantinedRound int
	Err              error
	// OutageRounds counts rounds lost to injected carrier dropouts.
	OutageRounds int
}

// HubResult is one hub's share of a network run.
type HubResult struct {
	// Hub is the topology entry this result describes.
	Hub *Hub
	// Drain is everything the hub's battery spent: home duty, relay
	// forwarding, and carrier donation are all drawn from it.
	Drain units.Joule
	// Exhausted reports the battery died before the horizon; DiedRound
	// records when (-1 if it survived).
	Exhausted bool
	DiedRound int
	// Replans counts commit-time re-solves against drifted budgets.
	Replans int
	// LPSolves aggregates the braid solver counter across the hub's
	// members. AllocReuses is always zero, since every braid epoch
	// solves afresh; it stays because bench/ reads it and Digest hashes
	// it, which keeps pinned digests valid.
	LPSolves, AllocReuses int
	// Members holds per-member outcomes in registration order.
	Members []MemberResult
}

// TotalBits sums delivered bits across the hub's members.
func (h *HubResult) TotalBits() float64 {
	total := 0.0
	for i := range h.Members {
		total += h.Members[i].Bits
	}
	return total
}

// Result is the outcome of a network run.
type Result struct {
	// Horizon is the wall-clock span simulated; Rounds the round count.
	Horizon units.Second
	Rounds  int
	// Hubs holds per-hub outcomes in topology order.
	Hubs []HubResult
	// Quarantines counts members removed from scheduling; Replans the
	// commit-time re-solves.
	Quarantines, Replans int
	// RelayRounds, SharedRounds, and InterferedRounds count committed
	// member-rounds by coupling; RelayBits totals the relayed payload.
	RelayRounds, SharedRounds, InterferedRounds int
	RelayBits                                   float64
}

// TotalBits sums delivered bits across the network.
func (r *Result) TotalBits() float64 {
	total := 0.0
	for h := range r.Hubs {
		total += r.Hubs[h].TotalBits()
	}
	return total
}

// Digest is an order-sensitive FNV-1a fingerprint of every numeric
// outcome in the result — the golden determinism tests pin it across
// worker counts and topologies.
func (r *Result) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	f(float64(r.Horizon))
	w(uint64(r.Rounds))
	w(uint64(r.Quarantines))
	w(uint64(r.Replans))
	w(uint64(r.RelayRounds))
	w(uint64(r.SharedRounds))
	w(uint64(r.InterferedRounds))
	f(r.RelayBits)
	for i := range r.Hubs {
		hr := &r.Hubs[i]
		f(float64(hr.Drain))
		b(hr.Exhausted)
		w(uint64(int64(hr.DiedRound)))
		w(uint64(hr.Replans))
		w(uint64(hr.LPSolves))
		w(uint64(hr.AllocReuses))
		for j := range hr.Members {
			mr := &hr.Members[j]
			f(mr.Bits)
			f(mr.RelayBits)
			f(float64(mr.MemberDrain))
			f(float64(mr.HubDrain))
			f(float64(mr.ViaDrain))
			for _, mb := range mr.ModeBits {
				f(mb)
			}
			w(uint64(mr.DirectRounds))
			w(uint64(mr.SharedRounds))
			w(uint64(mr.RelayRounds))
			w(uint64(mr.InterferedRounds))
			b(mr.Starved)
			b(mr.Quarantined)
			w(uint64(int64(mr.QuarantinedRound)))
			b(mr.Err != nil)
			if mr.OutageRounds != 0 {
				// Hashed only when nonzero, so fault-free runs keep
				// their pinned digests.
				w(uint64(mr.OutageRounds))
			}
		}
	}
	return h.Sum64()
}

// Digest fingerprints a round plan the same way.
func (p *RoundPlan) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { w(math.Float64bits(v)) }
	for _, e := range p.Emitting {
		if e {
			w(1)
		} else {
			w(0)
		}
	}
	for i := range p.Members {
		mp := &p.Members[i]
		w(uint64(mp.Hub))
		w(uint64(mp.Member))
		w(uint64(mp.Op))
		w(uint64(int64(mp.Donor)))
		w(uint64(int64(mp.Via)))
		f(mp.InterferenceMW)
		f(float64(mp.DirectTX))
		f(float64(mp.RelayTX))
		f(mp.Bits)
	}
	return h.Sum64()
}

// newResult builds a zeroed result shell for this topology.
func (n *Network) newResult(horizon units.Second, rounds int) *Result {
	res := &Result{
		Horizon: horizon,
		Rounds:  rounds,
		Hubs:    make([]HubResult, len(n.topo.Hubs)),
	}
	for h := range n.topo.Hubs {
		hub := &n.topo.Hubs[h]
		res.Hubs[h] = HubResult{
			Hub:       hub,
			DiedRound: -1,
			Members:   make([]MemberResult, len(hub.Members)),
		}
		for j := range hub.Members {
			res.Hubs[h].Members[j] = MemberResult{Member: hub.Members[j]}
		}
	}
	return res
}

// strike records one failed round for a slot and quarantines the member
// once the strike budget is exhausted.
func (n *Network) strike(res *Result, mr *MemberResult, s *slot, i, round int, rec *obs.Recorder,
	now units.Second, cause error) {
	s.strikes++
	if s.strikes < quarantineStrikes {
		return
	}
	mr.Quarantined = true
	mr.QuarantinedRound = round
	mr.Err = fmt.Errorf("%w after %d consecutive failed rounds: %w", ErrMemberQuarantined, s.strikes, cause)
	res.Quarantines++
	if rec != nil {
		rec.Quarantines.Add(1)
		rec.Trace(obs.Event{Kind: obs.EvQuarantine, Round: round, Member: i, Time: float64(now)})
	}
}

// Run simulates the network for a wall-clock horizon split into rounds.
// Each round: phase 0 decides eligibility, walks, faults, carriers,
// donors, and interference sequentially; phase 1 plans every member
// concurrently against immutable round-start snapshots; phase 2 commits
// drains in topology order (replan on drifted budgets, strikes and
// quarantine, hub-death mid-round cutoff), bills brownout extras, and
// settles relay rounds across the three batteries involved. The Result
// is bit-identical at any Workers count.
func (n *Network) Run(horizon units.Second, rounds int) (*Result, error) {
	if horizon <= 0 || rounds < 1 || math.IsInf(float64(horizon), 1) || math.IsNaN(float64(horizon)) {
		return nil, fmt.Errorf("%w: horizon %v / rounds %d", ErrBadRun, float64(horizon), rounds)
	}
	hubBatts, memberBatts := n.newBatteries()
	res := n.newResult(horizon, rounds)
	rec := obs.Active(n.cfg.Obs)
	sc := n.acquire()
	defer scratchPool.Put(sc)
	slice := horizon / units.Second(rounds)
	// Run appraises direct against relay only to choose between them; a
	// one-hub topology has no via hub, so it skips the direct solve too.
	appraise := !n.cfg.DisableRelay && len(n.topo.Hubs) > 1
	plan := func(i int) { n.planSlot(sc, i, memberBatts, slice, appraise, true) }

	for round := 0; round < rounds; round++ {
		now := units.Second(round) * slice
		n.phase0(sc, res, hubBatts, memberBatts, now, true)
		anyAlive := false
		for h := range sc.hubs {
			if sc.hubs[h].alive {
				anyAlive = true
				if rec != nil {
					rec.HubRounds.Add(1)
				}
			}
		}
		if !anyAlive {
			break
		}
		if rec != nil {
			if len(sc.hubs) > 1 {
				rec.NetRounds.Add(1)
			}
			rec.BatchRounds.Add(1)
		}

		// Phase 1: plan all slots against the immutable snapshots.
		par.For(n.cfg.Workers, len(sc.slots), plan)

		// Phase 2: commit in topology order.
		for h := range sc.hubs {
			hs := &sc.hubs[h]
			hr := &res.Hubs[h]
			if !hs.alive {
				continue
			}
			if hubBatts[h].Empty() {
				// An earlier hub's relay drained this hub to death before
				// its own commits ran: record the death and serve nobody —
				// striking every member for an external drain would
				// quarantine a healthy roster.
				if hr.DiedRound < 0 {
					hr.DiedRound = round
					if rec != nil {
						rec.HubDeaths.Add(1)
						rec.Trace(obs.Event{Kind: obs.EvHubDeath, Round: round, Member: -1, Time: float64(now)})
					}
				}
				continue
			}
			for i := hs.slotLo; i < hs.slotHi; i++ {
				s := &sc.slots[i]
				mr := &hr.Members[s.member]
				if s.skipQuarantined {
					continue
				}
				if s.skipStarved {
					mr.Starved = true
					continue
				}
				if s.outage {
					mr.OutageRounds++
					if rec != nil {
						rec.OutageRounds.Add(1)
						rec.Trace(obs.Event{Kind: obs.EvOutage, Round: round, Member: i, Time: float64(now)})
					}
					n.strike(res, mr, s, i, round, rec, now,
						fmt.Errorf("net: member %d/%d: carrier lost at t=%vs", h, s.member, float64(now)))
					continue
				}
				bits := float64(s.m.Load) * float64(slice)
				if s.op == OpRelay {
					n.commitRelay(res, hr, mr, s, i, h, round, bits, rec, now, hubBatts, memberBatts)
				} else {
					if s.err == nil {
						run := &s.plan
						hubNeed := run.Drain2
						if s.rxScale > 1 {
							hubNeed += run.Drain2 * units.Joule(s.rxScale-1)
						}
						if hubBatts[h].Remaining() < hubNeed {
							// Earlier commits (this hub's members, or a
							// relay billed to this hub) drained it below
							// the snapshot: re-solve against the truth.
							res.Replans++
							hr.Replans++
							if rec != nil {
								rec.Replans.Add(1)
								rec.Trace(obs.Event{Kind: obs.EvReplan, Round: round, Member: i, Time: float64(now)})
							}
							s.err = s.braid.RunInto(&s.plan, &s.scr, memberBatts[i], hubBatts[h])
						} else {
							memberBatts[i].Drain(run.Drain1)
							hubBatts[h].Drain(run.Drain2)
						}
					}
					if s.err != nil {
						n.strike(res, mr, s, i, round, rec, now,
							fmt.Errorf("net: member %d/%d: %w", h, s.member, s.err))
						continue
					}
					run := &s.plan
					s.strikes = 0
					if rec != nil {
						rec.MemberRounds.Add(1)
					}
					mr.Bits += run.Bits
					hr.LPSolves += run.LPSolves
					mr.MemberDrain += run.Drain1
					mr.HubDrain += run.Drain2
					hr.Drain += run.Drain2
					if s.txScale > 1 {
						extra := run.Drain1 * units.Joule(s.txScale-1)
						memberBatts[i].Drain(extra)
						mr.MemberDrain += extra
					}
					if s.rxScale > 1 {
						extra := run.Drain2 * units.Joule(s.rxScale-1)
						hubBatts[h].Drain(extra)
						mr.HubDrain += extra
						hr.Drain += extra
					}
					for mode, mb := range run.ModeBits {
						mr.ModeBits[mode] += mb
					}
					if s.op == OpShared {
						mr.SharedRounds++
						res.SharedRounds++
						if rec != nil {
							rec.CarrierShares.Add(1)
						}
					} else {
						mr.DirectRounds++
					}
					if s.mw > 0 {
						mr.InterferedRounds++
						res.InterferedRounds++
						if rec != nil {
							rec.InterferedRounds.Add(1)
						}
					}
					if run.Bits < bits*0.999 && memberBatts[i].Empty() {
						mr.Starved = true
					}
				}
				// Hub-death accounting: checked after every commit — a
				// dead hub must not keep serving the rest of the round.
				if hubBatts[h].Empty() {
					if hr.DiedRound < 0 {
						hr.DiedRound = round
						if rec != nil {
							rec.HubDeaths.Add(1)
							rec.Trace(obs.Event{Kind: obs.EvHubDeath, Round: round, Member: -1, Time: float64(now)})
						}
					}
					break
				}
			}
		}
	}
	for h := range res.Hubs {
		res.Hubs[h].Exhausted = hubBatts[h].Empty()
	}
	return res, nil
}

// commitRelay settles one relayed member-round: re-clamp the planned
// bits against the *current* remaining budgets (earlier commits this
// round may have drained the via or home hub), then bill the member the
// hop-1 TX, the via hub both middle legs, and the home hub the hop-2
// RX — the three per-bit prices straight from the appraisal's two
// chained Optimize solves. Brownout scales bill their extras on the
// member's hop-1 energy and the home hub's hop-2 RX energy, as on the
// direct path.
func (n *Network) commitRelay(res *Result, hr *HubResult, mr *MemberResult, s *slot,
	i, h, round int, bits float64, rec *obs.Recorder, now units.Second,
	hubBatts, memberBatts []*energy.Battery) {
	rp := &s.relay
	vres := &res.Hubs[rp.via]
	B := rp.bits
	if c := float64(memberBatts[i].Remaining()) / rp.txPerBit; c < B {
		B = c
	}
	if c := float64(hubBatts[rp.via].Remaining()) / rp.viaPerBit; c < B {
		B = c
	}
	if c := float64(hubBatts[h].Remaining()) / rp.rxPerBit; c < B {
		B = c
	}
	if B < rp.bits {
		res.Replans++
		hr.Replans++
		if rec != nil {
			rec.Replans.Add(1)
			rec.Trace(obs.Event{Kind: obs.EvReplan, Round: round, Member: i, Time: float64(now)})
		}
	}
	if !(B > 0) {
		n.strike(res, mr, s, i, round, rec, now,
			fmt.Errorf("net: member %d/%d: relay via hub %d has no budget", h, s.member, rp.via))
		return
	}
	memE := units.Joule(B * rp.txPerBit)
	viaE := units.Joule(B * rp.viaPerBit)
	homeE := units.Joule(B * rp.rxPerBit)
	if s.txScale > 1 {
		memE += memE * units.Joule(s.txScale-1)
	}
	if s.rxScale > 1 {
		homeE += homeE * units.Joule(s.rxScale-1)
	}
	memberBatts[i].Drain(memE)
	hubBatts[rp.via].Drain(viaE)
	hubBatts[h].Drain(homeE)
	s.strikes = 0
	if rec != nil {
		rec.MemberRounds.Add(1)
		rec.RelayRounds.Add(1)
		rec.RelayBits.Add(B)
	}
	mr.Bits += B
	mr.RelayBits += B
	mr.MemberDrain += memE
	mr.HubDrain += homeE
	mr.ViaDrain += viaE
	hr.Drain += homeE
	vres.Drain += viaE
	for mode := range rp.modeShare {
		mr.ModeBits[mode] += B * rp.modeShare[mode]
	}
	mr.RelayRounds++
	res.RelayRounds++
	res.RelayBits += B
	if s.mw > 0 {
		mr.InterferedRounds++
		res.InterferedRounds++
		if rec != nil {
			rec.InterferedRounds.Add(1)
		}
	}
	if B < bits*0.999 && memberBatts[i].Empty() {
		mr.Starved = true
	}
	// A relay can kill the via hub mid-round; its own commit loop (or
	// the next round's census) observes the death, but the round of
	// death is recorded here so it is attributed correctly.
	if hubBatts[rp.via].Empty() && vres.DiedRound < 0 {
		vres.DiedRound = round
		if rec != nil {
			rec.HubDeaths.Add(1)
			rec.Trace(obs.Event{Kind: obs.EvHubDeath, Round: round, Member: -1, Time: float64(now)})
		}
	}
}
