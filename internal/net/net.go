// Package net is Braidio's round engine: hubs, each serving its own
// braided members, sharing one physical channel. A lone star is the
// one-hub case — internal/hub runs every hub through this engine as a
// one-hub topology, where the couplings below have no second hub to
// couple to. Three couplings between stars are modeled and scheduled:
//
//   - Shared carriers. A backscatter tag does not care whose carrier it
//     reflects. When a neighboring hub is already transmitting, a
//     member's braid can ride that hub's carrier (phy.SharedCarrierLink):
//     the home hub listens with its passive envelope chain instead of
//     funding the 129 mW monostatic reader, moving the carrier bill to
//     the donor who was paying it anyway. The Eq. (1) solve then sees a
//     hub-side backscatter cost three orders of magnitude cheaper.
//
//   - Interference. Every concurrently emitting hub raises the noise
//     floor at every other hub's receiver. The scheduler aggregates the
//     co-channel carrier power arriving at each receiver and threads it
//     through the link characterization as phy.Model.Interference, so
//     rates, BERs, and per-bit costs degrade exactly as rf.SINR says
//     they should. With no interferers the path is gated, not
//     recomputed: results are bit-identical to the isolated model.
//
//   - Relays. A member out of its home hub's range (or facing a brutal
//     direct link) can braid to a nearer foreign hub, which forwards
//     over the hub-to-hub trunk: two chained core.Optimize solves, with
//     per-hop energy billed to member, via, and home respectively. The
//     planner picks relay over direct only when it strictly lowers the
//     member's energy per bit — or when direct is infeasible.
//
// Members may move, fail, and demand a rate: a Walk sets a member's
// distance to its home hub each round, Faults injects carrier dropouts
// and brownouts, and MinRate puts a QoS floor under its braid. A member
// whose rounds keep failing is quarantined after three consecutive
// strikes while the rest keep being served.
//
// # Two-phase rounds
//
// Plan appraises one round without draining anything (the testable,
// fuzzable entry point); Network.Run executes rounds against real
// batteries. A round opens with a sequential phase 0 (walks and faults,
// eligibility, the emission census, donors, interference, links), then
// plans every member concurrently against immutable round-start
// snapshots, writing only slot-owned scratch, and commits sequentially
// in topology order: drains, replans where earlier commits left a hub
// short of a plan's bill, strikes and quarantines, and a hub-death
// cutoff. Results are bit-identical at any Workers count. Each Run and
// PlanRound call draws its working set from a sync.Pool, because a
// fleet builds a fresh one-hub network for every shard-hour. A Member's
// Walk and Faults state must be private to that member: phase 0
// advances it once per round.
package net

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/linkcache"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// Member is one wearable anchored to a home hub.
type Member struct {
	// Device identifies the wearable.
	Device energy.Device
	// Pos is the member's position in the shared plane.
	Pos field.Vec2
	// Walk, when non-nil, sets the member's distance to its home hub at
	// the start of each round (clamped to MinDistance), overriding the
	// distance from Pos; distances to other hubs still derive from Pos.
	// A member that walks out of range fails its rounds and is
	// eventually quarantined.
	Walk sim.Walk
	// Faults, when non-nil, injects link faults into the member's
	// rounds: a carrier dropout makes the round an outage, in which the
	// member is inactive, and brownout drain scales are billed on top of
	// the braid's nominal energy (TX side to the member, RX side to the
	// home hub).
	Faults faults.Injector
	// Load is the member's offered traffic in payload bits per second of
	// wall-clock time.
	Load units.BitRate
	// MinRate, when positive, plans the member's braid with
	// core.OptimizeQoS: the braid must sustain at least this delivered
	// throughput while its slot is active — a live stream's floor.
	MinRate units.BitRate
}

// Hub is one energy-rich device serving a set of members.
type Hub struct {
	// Device identifies the hub.
	Device energy.Device
	// Pos is the hub's position in the shared plane.
	Pos field.Vec2
	// Members are the wearables homed on this hub.
	Members []Member
}

// Topology is the static geometry of a network: hubs, their members,
// and everyone's position. All distances the scheduler uses derive from
// the positions; there are no free distance parameters to disagree with
// the geometry.
type Topology struct {
	Hubs []Hub
}

// Typed validation errors. Plan and New reject malformed topologies
// with these (wrapped with context) and never panic — the fuzz harness
// pins that contract.
var (
	// ErrNoHubs reports an empty topology.
	ErrNoHubs = errors.New("net: topology has no hubs")
	// ErrEmptyHub reports a hub with no members.
	ErrEmptyHub = errors.New("net: hub has no members")
	// ErrBadPosition reports a NaN or infinite coordinate.
	ErrBadPosition = errors.New("net: non-finite position")
	// ErrBadLoad reports a non-positive or non-finite member load.
	ErrBadLoad = errors.New("net: non-positive load")
	// ErrBadDevice reports a device whose battery capacity is not a
	// positive finite number (energy.NewBattery would panic). It is
	// energy.ErrBadDevice, which sim and the root API return as well.
	ErrBadDevice = energy.ErrBadDevice
	// ErrCoincident reports two nodes (hub or member) at the exact same
	// position. Near-coincidence is fine — derived distances are clamped
	// to MinDistance — but exact duplicates are almost always a topology
	// generation bug, and the error is cheap to act on. Walkers are
	// exempt: their home distance comes from the walk, not from Pos.
	ErrCoincident = errors.New("net: coincident node positions")
	// ErrBadRun reports an invalid horizon, slice, or round count.
	ErrBadRun = errors.New("net: invalid horizon or rounds")
)

// ErrMemberQuarantined reports that a member was removed from
// scheduling after exhausting its strike budget. MemberResult.Err wraps
// it together with the final failure's cause.
var ErrMemberQuarantined = errors.New("net: member quarantined")

// MinDistance is the near-field clamp applied to every derived
// distance: the free-space model (and its d⁻² interference aggregate)
// diverges as d→0, and rf.FreeSpacePathLoss rejects d ≤ 0 outright.
// 1 cm matches field.Scene's near-field clamp.
const MinDistance units.Meter = 0.01

// carrierShareRange bounds the donor search: only emitting hubs within
// this distance of the member are considered as carrier donors. The
// bistatic link budget (phy.SharedCarrierLink) is the real gate — this
// only caps the search radius.
const carrierShareRange units.Meter = 5

// quarantineStrikes is the consecutive-failure budget before a member
// is quarantined; a successful round resets the member's count.
const quarantineStrikes = 3

// Config tunes the network scheduler. The zero value (plus a nil Model)
// is a working default: calibrated PHY, GOMAXPROCS workers, all three
// network couplings enabled.
type Config struct {
	// Model is the calibrated PHY; nil selects phy.NewModel(). A nonzero
	// Model.Interference acts as an ambient noise-raising floor that the
	// scheduler's per-round aggregate adds on top of.
	Model *phy.Model
	// Workers bounds plan-phase concurrency: 0 selects GOMAXPROCS, 1
	// plans sequentially. Results are bit-identical at any value.
	Workers int
	// DisableInterference ignores cross-hub interference: every link is
	// characterized against the isolated-pair model.
	DisableInterference bool
	// DisableCarrierShare never rides a neighbor's carrier.
	DisableCarrierShare bool
	// DisableRelay never considers 2-hop forwarding. With all three
	// Disable flags set, hubs never interact: each hub's result is
	// bit-identical to a Run of a topology holding that hub alone.
	DisableRelay bool
	// Obs, when non-nil, receives network counters and is propagated to
	// every member braid. Nil falls back to the process default recorder.
	Obs *obs.Recorder
}

// Validate checks a topology against the typed error set. It is called
// by New (and hence Plan); exported so generators can pre-check.
func Validate(t *Topology) error {
	if t == nil || len(t.Hubs) == 0 {
		return ErrNoHubs
	}
	// A node is a hub (member < 0) or one of its members; its name is
	// formatted only for an error.
	type node struct{ hub, member int }
	name := func(n node) string {
		if n.member < 0 {
			return fmt.Sprintf("hub %d", n.hub)
		}
		return fmt.Sprintf("member %d/%d", n.hub, n.member)
	}
	seen := make(map[field.Vec2]node, len(t.Hubs)*4)
	check := func(n node, p field.Vec2, d energy.Device, walks bool) error {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: %s at (%v, %v)", ErrBadPosition, name(n), p.X, p.Y)
		}
		if err := energy.CheckDevice(d); err != nil {
			return fmt.Errorf("net: %s: %w", name(n), err)
		}
		if walks {
			return nil
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("%w: %s and %s", ErrCoincident, name(n), name(prev))
		}
		seen[p] = n
		return nil
	}
	for h := range t.Hubs {
		hub := &t.Hubs[h]
		if len(hub.Members) == 0 {
			return fmt.Errorf("%w: hub %d (%s)", ErrEmptyHub, h, hub.Device.Name)
		}
		if err := check(node{h, -1}, hub.Pos, hub.Device, false); err != nil {
			return err
		}
		for j := range hub.Members {
			m := &hub.Members[j]
			if l := float64(m.Load); !(l > 0) || math.IsInf(l, 1) {
				return fmt.Errorf("%w: %s load %v", ErrBadLoad, name(node{h, j}), l)
			}
			if err := check(node{h, j}, m.Pos, m.Device, m.Walk != nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// clampDist applies the near-field floor to a derived distance.
func clampDist(d float64) units.Meter {
	if !(d > float64(MinDistance)) {
		return MinDistance
	}
	return units.Meter(d)
}

// hubState is one hub's per-round sequential state; its slots are
// slots[slotLo:slotHi].
type hubState struct {
	slotLo, slotHi int
	alive          bool
	emitting       bool
	snap           energy.Battery
}

// relayPlan is a slot's appraised 2-hop forwarding decision: the via
// hub, the planned bits, and the three per-bit bills the commit phase
// charges — member (hop-1 TX), via (hop-1 RX + hop-2 TX, one battery),
// home (hop-2 RX). The per-hop costs come verbatim from the two chained
// core.Optimize solves, so relay accounting is exactly the sum of two
// single-hop solves.
type relayPlan struct {
	ok                            bool
	via                           int
	bits                          float64
	txPerBit, viaPerBit, rxPerBit float64
	modeShare                     [phy.NumModes]float64
}

// seed is one (hub, member) pair's topology-derived state, fixed by New.
type seed struct {
	hub, member int
	m           *Member       // the topology entry
	homeDist    units.Meter   // clamped distance to the home hub
	toHub       []units.Meter // clamped distance to every hub
}

// slot is one (hub, member) pair's working set for a Run or PlanRound
// call: its seed, its braid and QoS scratch, plan-phase battery copies,
// its kept link row, the link buffer for carrier-shared rounds, and the
// round verdict the commit consumes. Everything here is owned by the
// slot's index — the plan phase may write it from any worker without
// synchronization.
type slot struct {
	seed

	braid   core.Braid
	qos     core.QoSScratch // a MinRate member's optimizer buffers
	scr     core.RunScratch
	plan    core.Result
	planB1  energy.Battery
	planB2  energy.Battery
	alloc   core.Allocation // direct / relay appraisal target
	alloc2  core.Allocation // relay hop-2 appraisal target
	strikes int             // consecutive failed rounds

	// row is the home link row phase 0 last read, at (rowDist, rowMW).
	// The slot reuses it while that key repeats, which spares a global
	// cache lookup per round for a member that does not move.
	row     []phy.ModeLink
	rowDist units.Meter
	rowMW   float64

	// priv backs the slot's carrier-shared link set: the view's row with
	// the bistatic link substituted. The shared row stays read-only.
	priv []phy.ModeLink

	// Round verdict, reset in phase 0.
	err                          error
	active, outage               bool
	skipQuarantined, skipStarved bool
	dist                         units.Meter // this round's home distance
	txScale, rxScale             float64     // brownout drain scales
	mw                           float64
	donor                        int
	shared                       phy.ModeLink
	sharedOK                     bool
	links                        []phy.ModeLink
	op                           Op
	directTX                     float64
	directBits                   float64
	relay                        relayPlan
}

// scratch is the working set of one Run or PlanRound call. It is
// recycled through scratchPool, so repeated runs reuse braids, schedule
// buffers and link buffers instead of reallocating them.
type scratch struct {
	slots []slot
	hubs  []hubState
	env   faults.Env
}

// scratchPool recycles scratch values across Run and PlanRound calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquire returns a scratch sized for this network with every slot
// reseeded and its braid rebuilt, so a run's results never depend on
// what a recycled scratch last held.
func (n *Network) acquire() *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.slots) < len(n.seeds) {
		sc.slots = make([]slot, len(n.seeds))
	}
	if cap(sc.hubs) < len(n.topo.Hubs) {
		sc.hubs = make([]hubState, len(n.topo.Hubs))
	}
	sc.slots = sc.slots[:len(n.seeds)]
	sc.hubs = sc.hubs[:len(n.topo.Hubs)]
	lo := 0
	for h := range sc.hubs {
		sc.hubs[h].slotLo = lo
		lo += len(n.topo.Hubs[h].Members)
		sc.hubs[h].slotHi = lo
	}
	for i := range sc.slots {
		s := &sc.slots[i]
		s.seed = n.seeds[i]
		s.braid = core.DefaultBraid(n.model, s.homeDist)
		s.braid.Obs = n.cfg.Obs
		if minRate := s.m.MinRate; minRate > 0 {
			qos := &s.qos
			s.braid.Optimizer = func(links []phy.ModeLink, e1, e2 units.Joule) (*core.Allocation, error) {
				return qos.Optimize(links, e1, e2, minRate)
			}
		}
		s.row = nil
		s.strikes = 0
	}
	return sc
}

// Network is a constructed scheduler over a validated topology. Create
// with New, then Run (or PlanRound). A Network holds only
// topology-derived state, but Run advances its members' Walk and Faults
// state, so it is not safe for concurrent use; the topology must not be
// mutated while the Network is alive.
type Network struct {
	cfg   Config
	model *phy.Model
	view  *linkcache.View
	topo  *Topology
	seeds []seed
	// hubDist[a][b] is the clamped hub-to-hub trunk distance; intMW[a][b]
	// is the co-channel carrier power (linear mW, fade-derated) hub a's
	// emission lands at hub b's receiver — precomputed once, geometry is
	// static.
	hubDist [][]units.Meter
	intMW   [][]float64
}

// New validates the topology and builds a scheduler over it.
func New(t *Topology, cfg Config) (*Network, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		cfg.Model = phy.NewModel()
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	n := &Network{
		cfg:   cfg,
		model: cfg.Model,
		view:  linkcache.NewView(cfg.Model),
		topo:  t,
	}
	nh := len(t.Hubs)
	n.hubDist = make([][]units.Meter, nh)
	n.intMW = make([][]float64, nh)
	for a := 0; a < nh; a++ {
		n.hubDist[a] = make([]units.Meter, nh)
		n.intMW[a] = make([]float64, nh)
		for b := 0; b < nh; b++ {
			if a == b {
				continue
			}
			d := clampDist(t.Hubs[a].Pos.Dist(t.Hubs[b].Pos))
			n.hubDist[a][b] = d
			rx := n.model.OneWay.Received(phy.CarrierPower, d).Sub(n.model.FadeMargin)
			n.intMW[a][b] = rx.Watts().Milliwatts()
		}
	}
	ns := 0
	for h := range t.Hubs {
		ns += len(t.Hubs[h].Members)
	}
	n.seeds = make([]seed, 0, ns)
	toHub := make([]units.Meter, ns*nh)
	for h := range t.Hubs {
		hub := &t.Hubs[h]
		for j := range hub.Members {
			m := &hub.Members[j]
			s := seed{
				hub:      h,
				member:   j,
				m:        m,
				homeDist: clampDist(m.Pos.Dist(hub.Pos)),
				toHub:    toHub[len(n.seeds)*nh : (len(n.seeds)+1)*nh],
			}
			for v := 0; v < nh; v++ {
				s.toHub[v] = clampDist(m.Pos.Dist(t.Hubs[v].Pos))
			}
			n.seeds = append(n.seeds, s)
		}
	}
	return n, nil
}

// Slots returns the number of (hub, member) pairs the scheduler serves.
func (n *Network) Slots() int { return len(n.seeds) }

// interferenceAt aggregates the co-channel carrier power (linear mW)
// arriving at hub rx's receiver from every emitting hub, excluding rx
// itself and up to one additional hub (the carrier donor whose emission
// is the wanted signal, or the relay transmitter). Summation is in
// fixed hub-index order, so the aggregate is deterministic.
func (n *Network) interferenceAt(sc *scratch, rx, exclude int) float64 {
	mw := 0.0
	for h := range sc.hubs {
		if h == rx || h == exclude || !sc.hubs[h].emitting {
			continue
		}
		mw += n.intMW[h][rx]
	}
	return mw
}

// newBatteries builds fresh batteries for every hub and member slot.
func (n *Network) newBatteries() (hubBatts, memberBatts []*energy.Battery) {
	hubBatts = make([]*energy.Battery, len(n.topo.Hubs))
	for h := range n.topo.Hubs {
		hubBatts[h] = n.topo.Hubs[h].Device.NewBattery()
	}
	memberBatts = make([]*energy.Battery, len(n.seeds))
	for i := range n.seeds {
		memberBatts[i] = n.seeds[i].m.Device.NewBattery()
	}
	return hubBatts, memberBatts
}
