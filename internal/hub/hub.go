// Package hub extends Braidio's pairwise carrier offload to a star
// network: one energy-rich hub (a phone or laptop) serving several
// wearables, each over its own braided pair, with the hub's single
// battery shared across all of them.
//
// The paper evaluates pairs; the introduction's motivation — "a
// significant fraction of the energy cost of communication [can] be
// offloaded to the device that has more energy i.e. the mobile phone" —
// is inherently multi-device. The hub schedules its members round-robin
// (one radio, one link at a time), re-solving each member's offload
// allocation against the hub's *remaining* budget so that early traffic
// from one wearable is reflected in the braiding chosen for the others.
//
// Members are fault-isolated: a member whose link dies (it walked out of
// range, its carrier dropped, its QoS floor became infeasible) is
// quarantined after three consecutive failed rounds — a successful round
// resets the count, and the quarantined member's MemberResult carries a
// typed error wrapping ErrMemberQuarantined and the cause — while the
// round-robin keeps serving healthy members.
// Pre-quarantine, one degraded member could sink the whole run.
//
// # One engine
//
// A star is the one-hub case of a network, so Run has no round engine
// of its own: it runs the hub as a one-hub net.Topology, where net's
// couplings (interference, carrier sharing, relays) have no second hub
// to couple to. Rounds are net's two-phase rounds, and a
// Result is bit-identical at any Workers count. A Member's Walk and
// Faults state must be private to that member: it advances once per
// round.
package hub

import (
	"errors"
	"fmt"
	"math"

	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/linkcache"
	"braidio/internal/net"
	"braidio/internal/obs"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// Member is one wearable served by the hub.
type Member struct {
	// Device identifies the wearable.
	Device energy.Device
	// Distance from the hub.
	Distance units.Meter
	// Walk, when non-nil, drives the member's distance from wall-clock
	// time (evaluated at each round's start), overriding Distance — a
	// member that wanders out of range mid-run fails its rounds and is
	// eventually quarantined.
	Walk sim.Walk
	// Faults, when non-nil, injects link faults into the member's
	// rounds: a carrier dropout window makes the round an outage, and
	// brownout drain scales are charged on top of the braid's nominal
	// energy (TX side = the member, RX side = the hub).
	Faults faults.Injector
	// Load is the member's offered traffic in payload bits per second
	// of wall-clock time.
	Load units.BitRate
	// MinRate, when positive, applies the QoS-constrained offload
	// (core.OptimizeQoS): the member's braid must sustain at least this
	// delivered throughput while its slot is active — a live stream's
	// floor.
	MinRate units.BitRate
}

// Hub is a star network under construction. Create with New, add
// members, then Run.
type Hub struct {
	// Workers bounds the plan phase's concurrency: 0 selects
	// GOMAXPROCS, 1 plans sequentially on the calling goroutine. The
	// Result is bit-identical at any value — Workers trades only
	// wall-clock.
	Workers int
	// Obs, when non-nil, receives round/replan/quarantine counters and
	// is propagated to every member braid. Nil falls back to the process
	// default recorder (obs.Active). Canonical metric snapshots are
	// bit-identical at any Workers count; attaching a recorder never
	// changes a Result.
	Obs *obs.Recorder

	device  energy.Device
	model   *phy.Model
	members []Member
}

// New creates a hub on the given device using the calibrated model when
// m is nil.
func New(device energy.Device, m *phy.Model) *Hub {
	if m == nil {
		m = phy.NewModel()
	}
	return &Hub{device: device, model: m}
}

// Add registers a member. It returns an error wrapping net.ErrBadLoad if
// the load is not positive and finite, and an error if no link mode
// reaches the member.
func (h *Hub) Add(m Member) error {
	if l := float64(m.Load); !(l > 0) || math.IsInf(l, 1) {
		return fmt.Errorf("hub: member %s: %w %v", m.Device.Name, net.ErrBadLoad, l)
	}
	if len(linkcache.Characterize(h.model, m.Distance)) == 0 {
		return fmt.Errorf("hub: member %s at %v m is out of range", m.Device.Name, float64(m.Distance))
	}
	h.members = append(h.members, m)
	return nil
}

// Members returns the registered members.
func (h *Hub) Members() []Member { return h.members }

// ErrMemberQuarantined reports that a member was removed from the
// round-robin after exhausting its strike budget. MemberResult.Err wraps
// it together with the final failure's cause, so both
// errors.Is(err, ErrMemberQuarantined) and errors.Is against the cause
// (e.g. core.ErrOutOfRange) hold. It is net.ErrMemberQuarantined.
var ErrMemberQuarantined = net.ErrMemberQuarantined

// MemberResult is one member's share of a hub run.
type MemberResult struct {
	Member Member
	// Bits delivered from the member to the hub.
	Bits float64
	// MemberDrain and HubDrain are the energies each side spent on this
	// member's traffic.
	MemberDrain, HubDrain units.Joule
	// ModeBits attributes the member's bits to modes, indexed by
	// phy.Mode.
	ModeBits [phy.NumModes]float64
	// Starved reports that the member's battery died before the horizon.
	Starved bool
	// Quarantined reports the member was removed from the round-robin;
	// Err then wraps ErrMemberQuarantined and the final cause, and
	// QuarantinedRound records when.
	Quarantined      bool
	QuarantinedRound int
	// Err is the member's terminal failure, nil for a healthy member.
	Err error
	// OutageRounds counts rounds lost to injected carrier dropouts.
	OutageRounds int
}

// Result is the outcome of a hub run.
type Result struct {
	// Horizon is the wall-clock span simulated.
	Horizon units.Second
	// HubDrain is the hub's total radio energy.
	HubDrain units.Joule
	// HubExhausted reports the hub battery died before the horizon.
	HubExhausted bool
	// Members holds per-member outcomes in registration order.
	Members []MemberResult
	// Quarantines counts members removed from the round-robin.
	Quarantines int
	// OutageRounds totals rounds lost to injected outages across
	// members.
	OutageRounds int
	// LPSolves aggregates the braid engine's offload solves across
	// every member run. AllocReuses is always zero, since every braid
	// epoch solves afresh; it stays because bench/ reads it.
	LPSolves, AllocReuses int
	// HubDiedRound is the round during which the hub battery hit empty
	// (checked after every member commit), or -1 if it survived the
	// horizon. Members later in the commit order than the fatal drain
	// are not served for the rest of the run.
	HubDiedRound int
	// Replans counts commit-time re-solves: rounds where earlier
	// commits drained the hub below what a member's snapshot plan
	// assumed, so the member was re-run against the true remaining
	// energies. Nonzero only in the hub's dying rounds.
	Replans int
}

// TotalBits sums delivered bits across members.
func (r *Result) TotalBits() float64 {
	total := 0.0
	for _, m := range r.Members {
		total += m.Bits
	}
	return total
}

// ErrNoMembers reports an empty hub.
var ErrNoMembers = errors.New("hub: no members")

// Run simulates the star for a wall-clock horizon, delivering each
// member's offered load in rounds. It runs the hub as a one-hub
// net.Topology; see the package comment. Run stops early — mid-round,
// after the fatal commit — if the hub dies, recording the round in
// Result.HubDiedRound. Malformed inputs are typed errors: a device
// without positive finite capacity wraps net.ErrBadDevice, a bad load
// net.ErrBadLoad, and a bad horizon or round count net.ErrBadRun.
//
// Member failures do not abort the run: a round that errors (the member
// walked out of range, its QoS floor is infeasible, its carrier dropped)
// counts a strike, and a member that exhausts its strike budget is
// quarantined — recorded in its MemberResult — while the remaining
// members keep being served.
func (h *Hub) Run(horizon units.Second, rounds int) (*Result, error) {
	if len(h.members) == 0 {
		return nil, ErrNoMembers
	}
	// Every member is a walker — a static member walks in place — so the
	// walk sets its distance to the hub, and members may share a
	// position.
	static := make([]sim.StaticWalk, len(h.members))
	members := make([]net.Member, len(h.members))
	for i, m := range h.members {
		members[i] = net.Member{Device: m.Device, Walk: m.Walk, Faults: m.Faults, Load: m.Load, MinRate: m.MinRate}
		if m.Walk == nil {
			static[i] = sim.StaticWalk(m.Distance)
			members[i].Walk = &static[i]
		}
	}
	n, err := net.New(&net.Topology{Hubs: []net.Hub{{Device: h.device, Members: members}}},
		net.Config{Model: h.model, Workers: h.Workers, Obs: h.Obs})
	if err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}
	nr, err := n.Run(horizon, rounds)
	if err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}
	hr := &nr.Hubs[0]
	res := &Result{
		Horizon:      horizon,
		HubDrain:     hr.Drain,
		HubExhausted: hr.Exhausted,
		Members:      make([]MemberResult, len(hr.Members)),
		Quarantines:  nr.Quarantines,
		LPSolves:     hr.LPSolves,
		HubDiedRound: hr.DiedRound,
		Replans:      hr.Replans,
	}
	for i := range hr.Members {
		m := &hr.Members[i]
		res.Members[i] = MemberResult{
			Member:           h.members[i],
			Bits:             m.Bits,
			MemberDrain:      m.MemberDrain,
			HubDrain:         m.HubDrain,
			ModeBits:         m.ModeBits,
			Starved:          m.Starved,
			Quarantined:      m.Quarantined,
			QuarantinedRound: m.QuarantinedRound,
			Err:              m.Err,
			OutageRounds:     m.OutageRounds,
		}
		res.OutageRounds += m.OutageRounds
	}
	return res, nil
}

// HubShare returns the fraction of the joint radio bill the hub paid
// for a member — the offload the star achieves.
func (r *MemberResult) HubShare() float64 {
	total := float64(r.MemberDrain + r.HubDrain)
	if total == 0 {
		return 0
	}
	return float64(r.HubDrain) / total
}

// Lifetime estimates how many horizons the member's battery funds at
// the observed drain rate (+Inf for a zero drain).
func (r *MemberResult) Lifetime() float64 {
	if r.MemberDrain <= 0 {
		return math.Inf(1)
	}
	return float64(r.Member.Device.Capacity.Joules()) / float64(r.MemberDrain)
}
