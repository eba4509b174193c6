package main

// The sim workload is the offline simulation user: a closed loop that
// alternates one simulated fleet hour (hub.Fleet.Run) and one simulated
// network hour (net.Network.Run) on inputs drawn from the seed. PHY
// characterization and the Eq. (1) solve do almost all of its work; it
// never touches serve or HTTP.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/field"
	"braidio/internal/hub"
	"braidio/internal/linkcache"
	"braidio/internal/net"
	"braidio/internal/rng"
	"braidio/internal/sim"
	"braidio/internal/units"
)

// One simulated hour in twelve five-minute rounds, for both engines.
const (
	simHorizon units.Second = 3600
	simRounds               = 12
)

// simScale is the sim workload's input size.
type simScale struct {
	shards, members int // fleet hubs × walking members per hub
}

// device looks up a catalog device; the names below are all in the
// catalog, so a miss is a bug.
func device(name string) energy.Device {
	d, ok := energy.DeviceByName(name)
	if !ok {
		panic("bench: no catalog device " + name)
	}
	return d
}

// fleetBuilder builds one fleet hub: walking members drawn from the
// shard's stream, mixed like the hub goldens — one member in eight
// behind a periodic carrier dropout, one behind a Gilbert-Elliott
// burst-loss channel, one with a QoS rate floor.
func fleetBuilder(members int) hub.Builder {
	phone := device("iPhone 6S")
	wearables := []energy.Device{device("Apple Watch"), device("Nike Fuel Band"), device("Pebble Watch")}
	return func(shard int, st *rng.Stream) (*hub.Hub, error) {
		h := hub.New(phone, nil)
		for j := 0; j < members; j++ {
			m := hub.Member{
				Device:   wearables[st.Intn(len(wearables))],
				Distance: units.Meter(0.3 + 1.5*st.Float64()),
				Load:     units.BitRate(1000 + st.Intn(50000)),
				Walk:     sim.NewRandomWaypoint(0.2, 2.0, 0.4, 20, st.Split()),
			}
			switch (shard*members + j) % 8 {
			case 5:
				m.Faults = &faults.Dropout{Start: units.Second(300 * st.Intn(3)), Period: 900, Duration: 300}
			case 6:
				m.Faults = faults.NewGilbertElliott(0.2, 0.5, 0, 0.4, st.Uint64())
			case 7:
				m.MinRate = units.BitRate(100000 + st.Intn(200000))
			}
			if err := h.Add(m); err != nil {
				return nil, err
			}
		}
		return h, nil
	}
}

// netTopology draws the workload's network: two clustered hub pairs
// 1.6 m apart (members ride the neighbour's carrier, and every receiver
// hears the other pair's carriers 2 km away as interference) and a
// relay pair 1.6 km apart, 50 km from the clusters, whose home hub has
// one member stranded past its active range but 200 m from the other
// hub. Eight members per hub.
func netTopology(seed uint64) *net.Topology {
	st := rng.New(seed ^ 0x6e657477)
	phone := device("iPhone 6S")
	wearables := []energy.Device{device("Apple Watch"), device("Nike Fuel Band"), device("Pebble Watch")}
	jitter := func(scale float64) float64 { return scale * (st.Float64() - 0.5) }
	hubAt := func(x, y float64) net.Hub {
		return net.Hub{Device: phone, Pos: field.Vec2{X: x + jitter(0.2), Y: y + jitter(0.2)}}
	}
	member := func(at field.Vec2, r float64) net.Member {
		a := 2 * math.Pi * st.Float64()
		return net.Member{
			Device: wearables[st.Intn(len(wearables))],
			Pos:    field.Vec2{X: at.X + r*math.Cos(a), Y: at.Y + r*math.Sin(a)},
			Load:   units.BitRate(10000 + st.Intn(40000)),
		}
	}
	hubs := []net.Hub{
		hubAt(0, 0), hubAt(1.6, 0), // cluster pair A
		hubAt(2000, 0), hubAt(2001.6, 0), // cluster pair B
		hubAt(50000, 0), hubAt(51600, 0), // relay pair
	}
	for h := range hubs {
		for j := 0; j < 8; j++ {
			hubs[h].Members = append(hubs[h].Members, member(hubs[h].Pos, 0.2+0.4*st.Float64()))
		}
	}
	// The stranded member: 1.8 km from its home hub (hub 4), 200 m from
	// hub 5, whose trunk back home is 1.6 km.
	hubs[4].Members[7].Pos = field.Vec2{X: hubs[4].Pos.X + 1800 + jitter(10), Y: jitter(10)}
	return &net.Topology{Hubs: hubs}
}

// simState is one set-up's inputs and the reference outputs every
// measured hour must reproduce.
type simState struct {
	fleet   *hub.Fleet
	network *net.Network
	topo    *net.Topology
	plan    *net.RoundPlan
	fleetD  uint64
	netD    uint64
}

// setupSim builds the fleet and network from the seed, checks that the
// network round exercises all three couplings, and runs both engines at
// one and two workers: the two must agree, and their digests become the
// reference every measured hour is checked against.
func setupSim(seed uint64, sc simScale) (*simState, error) {
	s := &simState{
		fleet: &hub.Fleet{Shards: sc.shards, Workers: 2, Seed: seed, Build: fleetBuilder(sc.members)},
		topo:  netTopology(seed),
	}
	var err error
	if s.network, err = net.New(s.topo, net.Config{Workers: 2}); err != nil {
		return nil, err
	}
	if s.plan, err = s.network.PlanRound(simHorizon / simRounds); err != nil {
		return nil, err
	}
	var shared, relay, interfered int
	for _, mp := range s.plan.Members {
		switch mp.Op {
		case net.OpShared:
			shared++
		case net.OpRelay:
			relay++
		}
		if mp.InterferenceMW > 0 {
			interfered++
		}
	}
	if shared == 0 || relay == 0 || interfered == 0 {
		return nil, fmt.Errorf("sim: seed %d topology plans %d shared, %d relay, %d interfered members; need at least one of each",
			seed, shared, relay, interfered)
	}

	seq := *s.fleet
	seq.Workers = 1
	fr1, err := seq.Run(simHorizon, simRounds)
	if err != nil {
		return nil, err
	}
	fr2, err := s.fleet.Run(simHorizon, simRounds)
	if err != nil {
		return nil, err
	}
	if s.fleetD = fleetDigest(fr2); fleetDigest(fr1) != s.fleetD {
		return nil, fmt.Errorf("sim: fleet digest differs between 1 and 2 workers")
	}
	net1, err := net.New(s.topo, net.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	nr1, err := net1.Run(simHorizon, simRounds)
	if err != nil {
		return nil, err
	}
	nr2, err := s.network.Run(simHorizon, simRounds)
	if err != nil {
		return nil, err
	}
	if s.netD = nr2.Digest(); nr1.Digest() != s.netD {
		return nil, fmt.Errorf("sim: network digest differs between 1 and 2 workers")
	}
	return s, nil
}

// fleetDigest is an FNV-1a fingerprint of every numeric outcome of a
// fleet run, in shard and member order.
func fleetDigest(f *hub.FleetResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fl := func(v float64) { w(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	for _, r := range f.Shards {
		if r == nil {
			w(^uint64(0))
			continue
		}
		fl(float64(r.HubDrain))
		b(r.HubExhausted)
		w(uint64(r.Quarantines))
		w(uint64(r.OutageRounds))
		w(uint64(r.LPSolves))
		w(uint64(r.AllocReuses))
		w(uint64(int64(r.HubDiedRound)))
		w(uint64(r.Replans))
		for i := range r.Members {
			m := &r.Members[i]
			fl(m.Bits)
			fl(float64(m.MemberDrain))
			fl(float64(m.HubDrain))
			for _, mb := range m.ModeBits {
				fl(mb)
			}
			b(m.Starved)
			b(m.Quarantined)
			w(uint64(int64(m.QuarantinedRound)))
			w(uint64(m.OutageRounds))
			b(m.Err != nil)
		}
	}
	return h.Sum64()
}

// runSim is the sim workload.
func runSim(cfg *config, tr *tracer) (*outcome, error) {
	sc := simScale{shards: 16, members: 8}
	if cfg.short {
		sc = simScale{shards: 4, members: 8}
	}
	out := &outcome{clock: &hostClock{}}
	var s *simState
	err := cfg.repeatSetup(out, func() (err error) {
		s, err = setupSim(cfg.seed, sc)
		return err
	}, func() error {
		s = nil
		linkcache.Flush() // every set-up after the first starts from a cold link cache too
		return nil
	})
	if err != nil {
		return nil, err
	}
	stopMem, err := watchMemory(out, 0)
	if err != nil {
		return nil, err
	}
	if err := checkPinned(cfg, "sim", []string{fmt.Sprintf("%016x", s.fleetD), fmt.Sprintf("%016x", s.netD)}); err != nil {
		out.check(false, "%v", err)
	}

	var hubMS, netMS dist
	var lp, reuses, replans, quarantines, relays, shares, interfered, cycles int
	var hubAlloc, netAlloc dist
	var planRoundMS, execMS dist // traced cycles only
	pick := traceChooser(tr, cfg.seed)
	alloc := allocCounter(cfg.trace)
	cache0 := linkcache.Snapshot()
	cpu0, ref0 := cpuTime(), out.clock.spentTime()
	end := cfg.deadline()
	out.clock.mark()
	for op := 0; time.Now().Before(end); op++ {
		t := pick()
		traced := t != nil
		root := t.begin("sim.cycle", 0, op)
		a0 := alloc()
		t0 := time.Now()
		sp := t.begin("hub.fleet_hour", root, op)
		fr, ferr := s.fleet.Run(simHorizon, simRounds)
		t.end(sp)
		hubDur := time.Since(t0)
		a1 := alloc()
		t1 := time.Now()
		sp = t.begin("net.hour", root, op)
		nr, nerr := s.network.Run(simHorizon, simRounds)
		t.end(sp)
		netDur := time.Since(t1)
		a2 := alloc()
		t.end(root)
		scale := out.clock.factor()

		out.check(ferr == nil && fleetDigest(fr) == s.fleetD, "sim op %d: fleet hour diverged (err %v)", op, ferr)
		out.check(nerr == nil && nr.Digest() == s.netD, "sim op %d: network hour diverged (err %v)", op, nerr)
		if traced {
			out.traced = append(out.traced, ms(hubDur+netDur)*scale)
			// One PlanRound right after the hour, so the derived
			// execute+commit time compares the two under the same load.
			sp = t.begin("net.plan_round", 0, op)
			p0 := time.Now()
			_, perr := s.network.PlanRound(simHorizon / simRounds)
			planMS := ms(time.Since(p0))
			t.end(sp)
			if perr != nil {
				return nil, perr
			}
			planRoundMS = append(planRoundMS, planMS)
			execMS = append(execMS, ms(netDur)/simRounds-planMS)
			continue
		}
		out.ops = append(out.ops, ms(hubDur+netDur)*scale)
		hubMS = append(hubMS, ms(hubDur))
		netMS = append(netMS, ms(netDur))
		hubAlloc = append(hubAlloc, float64(a1-a0)/1024)
		netAlloc = append(netAlloc, float64(a2-a1)/1024)
		if ferr == nil && nerr == nil {
			cycles++
			l, r := fr.Solves()
			lp += l
			reuses += r
			for _, sh := range fr.Shards {
				replans += sh.Replans
			}
			quarantines += fr.Quarantines()
			for h := range nr.Hubs {
				lp += nr.Hubs[h].LPSolves
				reuses += nr.Hubs[h].AllocReuses
			}
			relays += nr.RelayRounds
			shares += nr.SharedRounds
			interfered += nr.InterferedRounds
		}
	}
	out.cpu = cpuTime() - cpu0 - (out.clock.spentTime() - ref0)
	out.cpuOps = len(out.ops) + len(out.traced)
	cache := linkcache.Snapshot()
	if err := stopMem(); err != nil {
		return nil, err
	}

	out.add("sim.hub_hour_ms", hubMS.median(), "ms")
	out.add("sim.net_hour_ms", netMS.median(), "ms")
	if !cfg.trace {
		return out, nil
	}
	per := func(n int) float64 { return float64(n) / math.Max(1, float64(cycles)) }
	out.add("core.lp_solves_per_hour", per(lp), "count")
	out.add("core.alloc_reuses_per_hour", per(reuses), "count")
	out.add("hub.replans_per_hour", per(replans), "count")
	out.add("hub.quarantines_per_hour", per(quarantines), "count")
	out.add("hub.alloc_kb_per_hour", hubAlloc.median(), "KiB")
	out.add("net.relay_rounds_per_hour", per(relays), "count")
	out.add("net.shared_rounds_per_hour", per(shares), "count")
	out.add("net.interfered_rounds_per_hour", per(interfered), "count")
	out.add("net.alloc_kb_per_hour", netAlloc.median(), "KiB")

	out.add("net.plan_round_ms", planRoundMS.median(), "ms")
	out.add("net.execute_commit_ms", execMS.median(), "ms")

	in := simProbeInputs(cfg.seed, sc, s)
	out.layer = runProbes(tr, cfg.probeTime, in)
	out.layer = append(out.layer, row{"linkcache.hit_ratio", hitRatio(cache0, cache), "ratio"})
	return out, nil
}

// hitRatio is the link cache's hit share between two snapshots.
func hitRatio(a, b linkcache.Stats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// simProbeInputs collects the links the sim workload characterizes and
// solves: every fleet member's distance at each round start (rebuilt
// from the same seeded streams the fleet uses) against the hub and
// member batteries, the network's member-to-home distances, and the
// interference the network round plan reports.
func simProbeInputs(seed uint64, sc simScale, s *simState) probeInputs {
	var in probeInputs
	streams := rng.Substreams(seed, sc.shards)
	for i := 0; i < sc.shards; i++ {
		h, err := s.fleet.Build(i, streams[i])
		if err != nil {
			panic(err)
		}
		hubE := device("iPhone 6S").NewBattery().Remaining()
		for _, m := range h.Members() {
			for r := 0; r < simRounds; r++ {
				in.add(m.Walk.DistanceAt(units.Second(r)*simHorizon/simRounds), hubE, m.Device.NewBattery().Remaining())
			}
		}
	}
	for _, hb := range s.topo.Hubs {
		for _, m := range hb.Members {
			in.add(units.Meter(math.Max(float64(net.MinDistance), m.Pos.Dist(hb.Pos))),
				hb.Device.NewBattery().Remaining(), m.Device.NewBattery().Remaining())
		}
	}
	for _, mp := range s.plan.Members {
		if mp.InterferenceMW > 0 {
			in.mw = append(in.mw, mp.InterferenceMW)
		}
	}
	return in
}
