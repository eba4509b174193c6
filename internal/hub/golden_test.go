package hub

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/units"
)

// digestResults is an FNV-1a fingerprint of every numeric outcome of a
// sequence of hub results, in result and member order; a nil result
// hashes as a marker. The recipe is bench's fleetDigest, so the two pin
// the same bits.
func digestResults(rs []*Result) uint64 {
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
	for _, r := range rs {
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

// dyingHub is TestHubDiedRoundAccounting's 20 µWh hub serving two
// half-megabit members.
func dyingHub(t testing.TB) *Hub {
	h := New(energy.Device{Name: "dying-hub", Capacity: 0.00002, Class: "custom"}, nil)
	for _, m := range []Member{
		{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 500000},
		{Device: dev(t, "Nike Fuel Band"), Distance: 0.4, Load: 500000},
	} {
		if err := h.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// brownoutPair is two members on a phone, one under a permanent 2× TX
// brownout and one under a permanent 3× RX brownout.
func brownoutPair(t testing.TB) *Hub {
	h := New(dev(t, "iPhone 6S"), nil)
	for _, m := range []Member{
		{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000,
			Faults: &faults.Brownout{Duration: 1e9, Scale: 2, Affected: faults.SideTX}},
		{Device: dev(t, "Nike Fuel Band"), Distance: 0.5, Load: 20000,
			Faults: &faults.Brownout{Duration: 1e9, Scale: 3, Affected: faults.SideRX}},
	} {
		if err := h.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// replanHub is a 100 µWh hub whose RX-brownout member and QoS-floored
// member drain it within the hour, so commits fall short of the
// round-start snapshot and re-solve.
func replanHub(t testing.TB) *Hub {
	h := New(energy.Device{Name: "small-hub", Capacity: 0.0001, Class: "custom"}, nil)
	for _, m := range []Member{
		{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 500000,
			Faults: &faults.Brownout{Duration: 1e9, Scale: 3, Affected: faults.SideRX}},
		{Device: dev(t, "Nike Fuel Band"), Distance: 1.0, Load: 300000, MinRate: 300000},
	} {
		if err := h.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// Golden digests of digestResults, pinned on linux/amd64 like net's.
const (
	goldenMixed    = 0x2aa9780dbfb6b999
	goldenBody     = 0xeb59db8364bbab96
	goldenDying    = 0xaa2a22aff319cd60
	goldenBrownout = 0xba356438a35d4a62
	goldenReplan   = 0x89af10d7093d4635
	goldenFleet    = 0x584cb0b6e6a1885
)

// TestHubGoldenDigests pins the exact bits of hub runs over every
// member input the engine handles: static, walking, faulted (dropout,
// Gilbert-Elliott, TX and RX brownouts) and QoS-floored members, a hub
// that dies mid-run, a hub that replans, and a fleet. Worker-invariance
// tests only prove runs agree with each other; these constants prove
// they agree with the engine as it was when they were pinned. If an
// intentional engine change moves a digest, re-pin it in the same
// commit and say why in the message.
func TestHubGoldenDigests(t *testing.T) {
	run := func(h *Hub, horizon units.Second, rounds int) *Result {
		t.Helper()
		r, err := h.Run(horizon, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	replan := run(replanHub(t), 3600, 12)
	if replan.Replans == 0 {
		t.Fatal("replan hub never replanned; its digest pins nothing extra")
	}
	cases := []struct {
		name string
		rs   []*Result
		want uint64
	}{
		{"mixed/workers=1", []*Result{run(buildMixedHub(t, 1), 3600, 24)}, goldenMixed},
		{"mixed/workers=2", []*Result{run(buildMixedHub(t, 2), 3600, 24)}, goldenMixed},
		{"mixed/workers=8", []*Result{run(buildMixedHub(t, 8), 3600, 24)}, goldenMixed},
		{"body", []*Result{run(bodyNetwork(t), 3600, 12)}, goldenBody},
		{"dying", []*Result{run(dyingHub(t), 3600, 12)}, goldenDying},
		{"brownout", []*Result{run(brownoutPair(t), 3600, 12)}, goldenBrownout},
		{"replan", []*Result{replan}, goldenReplan},
		{"fleet", runFleetAt(t, 1).Shards, goldenFleet},
	}
	for _, tc := range cases {
		if got := digestResults(tc.rs); got != tc.want {
			t.Errorf("%s: digest %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}
