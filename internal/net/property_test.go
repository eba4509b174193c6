package net

import (
	"math"
	"math/rand"
	"testing"

	"braidio/internal/field"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// randomTopology draws a topology the way braidio-sim's fleet mode
// draws populations: 2–4 hubs scattered over a 40 m court, 1–3 members
// each at arm's reach — except that a quarter of members camp near a
// *foreign* hub, the geometry where 2-hop relaying can genuinely beat
// the direct braid (the foreign hub offers the cheap sub-5 m modes the
// distant home hub cannot).
func randomTopology(r *rand.Rand, t testing.TB) *Topology {
	hubDev := dev(t, "iPhone 6S")
	watch := dev(t, "Apple Watch")
	nh := 2 + r.Intn(3)
	hubPos := make([]field.Vec2, nh)
	for h := range hubPos {
		hubPos[h] = field.Vec2{X: 40 * r.Float64(), Y: 40 * r.Float64()}
	}
	topo := &Topology{Hubs: make([]Hub, nh)}
	for h := 0; h < nh; h++ {
		nm := 1 + r.Intn(3)
		members := make([]Member, nm)
		for j := 0; j < nm; j++ {
			anchor := hubPos[h]
			if r.Float64() < 0.25 {
				anchor = hubPos[(h+1+r.Intn(nh-1))%nh]
			}
			rad := 0.2 + 1.8*r.Float64()
			ang := 2 * math.Pi * r.Float64()
			members[j] = Member{
				Device: watch,
				Pos:    field.Vec2{X: anchor.X + rad*math.Cos(ang), Y: anchor.Y + rad*math.Sin(ang)},
				Load:   units.BitRate(1000 + r.Intn(50000)),
			}
		}
		topo.Hubs[h] = Hub{Device: hubDev, Pos: hubPos[h], Members: members}
	}
	return topo
}

// propertyTopologies is the randomized-population count; -short trims
// it for quick local loops, CI runs the full wall.
func propertyTopologies(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 500
}

// TestPlanProperties is the 500-topology property wall over net.Plan:
//
//   - a relay is chosen only when it strictly lowers the member's
//     energy per bit versus direct (or direct is infeasible — +Inf);
//   - carrier donors are real: a foreign, emitting hub;
//   - interference aggregates are finite and non-negative, and a
//     positive aggregate never *improves* a link (the SINR ≤ SNR
//     corollary at the link-characterization level);
//   - the plan is bit-identical across worker counts.
func TestPlanProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const slice = units.Second(300)
	for trial := 0; trial < propertyTopologies(t); trial++ {
		topo := randomTopology(r, t)
		p, err := Plan(topo, Config{Workers: 1}, slice)
		if err != nil {
			t.Fatalf("trial %d: Plan: %v", trial, err)
		}
		p4, err := Plan(topo, Config{Workers: 4}, slice)
		if err != nil {
			t.Fatalf("trial %d: Plan workers=4: %v", trial, err)
		}
		if p.Digest() != p4.Digest() {
			t.Fatalf("trial %d: plan digest diverged across workers: %#x != %#x", trial, p.Digest(), p4.Digest())
		}
		model := phy.NewModel()
		for i, mp := range p.Members {
			if math.IsNaN(mp.InterferenceMW) || mp.InterferenceMW < 0 {
				t.Fatalf("trial %d member %d: bad interference %v", trial, i, mp.InterferenceMW)
			}
			if math.IsNaN(mp.Bits) || mp.Bits < 0 {
				t.Fatalf("trial %d member %d: bad bits %v", trial, i, mp.Bits)
			}
			switch mp.Op {
			case OpRelay:
				if !(float64(mp.RelayTX) < float64(mp.DirectTX)) {
					t.Errorf("trial %d member %d: relay chosen at %v J/bit, direct %v — not a strict improvement",
						trial, i, float64(mp.RelayTX), float64(mp.DirectTX))
				}
			case OpShared:
				if mp.Donor < 0 || mp.Donor == mp.Hub || !p.Emitting[mp.Donor] {
					t.Errorf("trial %d member %d: bogus donor %d (hub %d)", trial, i, mp.Donor, mp.Hub)
				}
			}
			if mp.InterferenceMW > 0 {
				// Interference never improves a link: every mode the
				// interfered model still offers exists clean, at no lower
				// goodput and no better BER at equal rate.
				d := clampDist(topo.Hubs[mp.Hub].Members[mp.Member].Pos.Dist(topo.Hubs[mp.Hub].Pos))
				clean := model.Characterize(d)
				noisy := *model
				noisy.Interference = mp.InterferenceMW
				dirty := noisy.Characterize(d)
				for _, dl := range dirty {
					found := false
					for _, cl := range clean {
						if cl.Mode != dl.Mode {
							continue
						}
						found = true
						if dl.Good > cl.Good {
							t.Errorf("trial %d member %d: interference raised %v goodput %v > %v",
								trial, i, dl.Mode, float64(dl.Good), float64(cl.Good))
						}
						if dl.Rate == cl.Rate && dl.BER < cl.BER {
							t.Errorf("trial %d member %d: interference lowered %v BER", trial, i, dl.Mode)
						}
					}
					if !found {
						t.Errorf("trial %d member %d: mode %v alive only under interference", trial, i, dl.Mode)
					}
				}
			}
		}
	}
}

// isolatedConfig is the anchor configuration: every network coupling
// off, so hubs cannot interact.
func isolatedConfig(workers int) Config {
	return Config{
		Workers:             workers,
		DisableInterference: true,
		DisableCarrierShare: true,
		DisableRelay:        true,
	}
}

// hubDigest fingerprints one hub's outcome bit for bit — drain, death
// round, replans, LP solves, alloc reuses, and every member field — by
// digesting a result that holds that hub alone.
func hubDigest(hr *HubResult) uint64 {
	return (&Result{Hubs: []HubResult{*hr}}).Digest()
}

// TestDisabledPathIsolatesHubs is the regression anchor for the
// couplings' off switches: with interference, carrier sharing, and
// relays all disabled, every hub of a network Run is bit-for-bit a Run
// of a one-hub topology holding that hub alone — the star engine
// internal/hub runs — across randomized topologies.
func TestDisabledPathIsolatesHubs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const (
		horizon = units.Second(1800)
		rounds  = 6
	)
	for trial := 0; trial < propertyTopologies(t); trial++ {
		topo := randomTopology(r, t)
		cfg := isolatedConfig(1 + trial%8)
		res := runNet(t, topo, cfg, horizon, rounds)
		if res.RelayRounds != 0 || res.SharedRounds != 0 || res.InterferedRounds != 0 || res.RelayBits != 0 {
			t.Fatalf("trial %d: disabled run recorded network couplings: %+v", trial, res)
		}
		for h := range topo.Hubs {
			alone := runNet(t, &Topology{Hubs: topo.Hubs[h : h+1]}, cfg, horizon, rounds)
			got, want := &res.Hubs[h], &alone.Hubs[0]
			if hubDigest(got) != hubDigest(want) {
				t.Fatalf("trial %d hub %d: network run diverged from the hub alone:\n got %+v\nwant %+v",
					trial, h, *got, *want)
			}
		}
	}
}

// TestDisabledRunBitIdenticalAcrossWorkers: the full engine (couplings
// on) is bit-identical across worker counts on random topologies too,
// not only the pinned golden geometries.
func TestRandomTopologyWorkerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		topo := randomTopology(r, t)
		ref := runNet(t, topo, Config{Workers: 1}, 900, 3).Digest()
		for _, workers := range []int{2, 8} {
			if got := runNet(t, topo, Config{Workers: workers}, 900, 3).Digest(); got != ref {
				t.Fatalf("trial %d: workers=%d digest %#x != workers=1 %#x", trial, workers, got, ref)
			}
		}
	}
}
