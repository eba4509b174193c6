package hub

import (
	"errors"
	"math"
	"testing"

	"braidio/internal/core"
	"braidio/internal/energy"
	"braidio/internal/faults"
	"braidio/internal/net"
	"braidio/internal/phy"
	"braidio/internal/sim"
	"braidio/internal/units"
)

func dev(t testing.TB, name string) energy.Device {
	t.Helper()
	d, ok := energy.DeviceByName(name)
	if !ok {
		t.Fatalf("unknown device %q", name)
	}
	return d
}

func bodyNetwork(t testing.TB) *Hub {
	t.Helper()
	h := New(dev(t, "iPhone 6S"), nil)
	for _, m := range []Member{
		{Device: dev(t, "Nike Fuel Band"), Distance: 0.4, Load: 1000},
		{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000},
		{Device: dev(t, "Pivothead"), Distance: 0.6, Load: 200000},
	} {
		if err := h.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestHubDeliversAllLoads(t *testing.T) {
	h := bodyNetwork(t)
	const horizon = 3600 // one hour
	res, err := h.Run(horizon, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.HubExhausted {
		t.Fatal("hub died within an hour")
	}
	for _, mr := range res.Members {
		want := float64(mr.Member.Load) * horizon
		if math.Abs(mr.Bits-want)/want > 0.01 {
			t.Errorf("%s delivered %v bits, offered %v", mr.Member.Device.Name, mr.Bits, want)
		}
		if mr.Starved {
			t.Errorf("%s starved", mr.Member.Device.Name)
		}
	}
}

// TestHubCarriesTheBill: the hub pays the power-proportional share of
// every member's radio bill — capacity_hub / (capacity_member +
// capacity_hub), i.e. the lion's share for every wearable.
func TestHubCarriesTheBill(t *testing.T) {
	h := bodyNetwork(t)
	res, err := h.Run(3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	hubCap := float64(dev(t, "iPhone 6S").Capacity)
	for _, mr := range res.Members {
		want := hubCap / (hubCap + float64(mr.Member.Device.Capacity))
		if share := mr.HubShare(); math.Abs(share-want) > 0.03 {
			t.Errorf("%s: hub share = %v, want power-proportional %v", mr.Member.Device.Name, share, want)
		}
		// Backscatter dominates every member's uplink.
		bs := mr.ModeBits[phy.ModeBackscatter] / mr.Bits
		if bs < 0.75 {
			t.Errorf("%s: backscatter fraction = %v", mr.Member.Device.Name, bs)
		}
	}
	if res.HubDrain <= 0 {
		t.Fatal("hub paid nothing")
	}
	// Sanity: total bits accounted.
	if res.TotalBits() <= 0 {
		t.Fatal("no bits")
	}
}

// TestHubDrainSharedAcrossMembers: the hub's drain equals the sum of the
// per-member hub drains, and the heavy member dominates it.
func TestHubDrainSharedAcrossMembers(t *testing.T) {
	h := bodyNetwork(t)
	res, err := h.Run(3600, 6)
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Joule
	heaviest := 0.0
	for _, mr := range res.Members {
		sum += mr.HubDrain
		if f := float64(mr.HubDrain); f > heaviest {
			heaviest = f
		}
	}
	if math.Abs(float64(res.HubDrain-sum)) > 1e-9 {
		t.Errorf("hub drain %v != member sum %v", res.HubDrain, sum)
	}
	// The camera (200 kbps) should dominate the band (1 kbps).
	if heaviest < 0.9*float64(res.HubDrain) {
		t.Errorf("camera share of hub drain = %v, want dominant", heaviest/float64(res.HubDrain))
	}
}

// TestHubExhaustion: a tiny hub battery dies mid-run and the result
// says so.
func TestHubExhaustion(t *testing.T) {
	tiny := energy.Device{Name: "dying-hub", Capacity: 0.00002, Class: "custom"}
	h := New(tiny, nil)
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 500000}); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(3600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HubExhausted {
		t.Error("20 µWh hub survived an hour of half-megabit service")
	}
	if res.TotalBits() <= 0 {
		t.Error("nothing delivered before exhaustion")
	}
}

// TestMemberStarvation: a member with a micro battery starves while
// others continue.
func TestMemberStarvation(t *testing.T) {
	h := New(dev(t, "iPhone 6S"), nil)
	micro := energy.Device{Name: "coin-cell", Capacity: 1e-7, Class: "custom"}
	if err := h.Add(Member{Device: micro, Distance: 0.4, Load: 800000}); err != nil {
		t.Fatal(err)
	}
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 1000}); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(7200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Members[0].Starved {
		t.Error("micro member did not starve")
	}
	if res.Members[1].Starved {
		t.Error("healthy member starved")
	}
	if res.Members[1].Bits <= 0 {
		t.Error("healthy member stopped delivering")
	}
}

func TestHubValidation(t *testing.T) {
	h := New(dev(t, "iPhone 6S"), nil)
	if _, err := h.Run(3600, 10); !errors.Is(err, ErrNoMembers) {
		t.Errorf("empty hub: %v", err)
	}
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.4}); err == nil {
		t.Error("zero load accepted")
	}
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 9000, Load: 1}); err == nil {
		t.Error("out-of-range member accepted")
	}
	if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(0, 10); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := h.Run(10, 0); err == nil {
		t.Error("zero rounds accepted")
	}
	if got := len(h.Members()); got != 1 {
		t.Errorf("members = %d", got)
	}
}

// TestHubDegenerateInputs: a zero-capacity hub or member and a NaN or
// infinite load are typed errors, never a panic or an unbounded round.
func TestHubDegenerateInputs(t *testing.T) {
	dead := energy.Device{Name: "dead", Capacity: 0, Class: "custom"}
	watch := Member{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000}

	h := New(dead, nil)
	if err := h.Add(watch); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(3600, 12); !errors.Is(err, net.ErrBadDevice) {
		t.Errorf("zero-capacity hub: err = %v, want net.ErrBadDevice", err)
	}
	h = New(dev(t, "iPhone 6S"), nil)
	if err := h.Add(Member{Device: dead, Distance: 0.4, Load: 5000}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(3600, 12); !errors.Is(err, net.ErrBadDevice) {
		t.Errorf("zero-capacity member: err = %v, want net.ErrBadDevice", err)
	}

	for _, load := range []units.BitRate{units.BitRate(math.NaN()), units.BitRate(math.Inf(1))} {
		m := watch
		m.Load = load
		if err := New(dev(t, "iPhone 6S"), nil).Add(m); !errors.Is(err, net.ErrBadLoad) {
			t.Errorf("Add with load %v: err = %v, want net.ErrBadLoad", float64(load), err)
		}
		// A member that bypasses Add still cannot run uncapped.
		h := New(dev(t, "iPhone 6S"), nil)
		h.members = append(h.members, m)
		if _, err := h.Run(3600, 12); !errors.Is(err, net.ErrBadLoad) {
			t.Errorf("Run with load %v: err = %v, want net.ErrBadLoad", float64(load), err)
		}
	}
}

func TestMemberLifetime(t *testing.T) {
	h := bodyNetwork(t)
	res, err := h.Run(3600, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The fitness band's hourly radio bill is microscopic: its battery
	// funds years of hours.
	band := res.Members[0]
	if life := band.Lifetime(); life < 10000 {
		t.Errorf("band lifetime = %v horizons, want enormous", life)
	}
	// A member that drained nothing is funded forever.
	idle := band
	idle.MemberDrain = 0
	if life := idle.Lifetime(); !math.IsInf(life, 1) {
		t.Errorf("zero-drain lifetime = %v horizons, want +Inf", life)
	}
}

func BenchmarkHubHour(b *testing.B) {
	h := bodyNetwork(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(3600, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHubQoSFloor: a member at 2 m with a rate floor gets a braid that
// sheds the slow 10 kbps backscatter slots.
func TestHubQoSFloor(t *testing.T) {
	h := New(dev(t, "iPhone 6S"), nil)
	if err := h.Add(Member{Device: dev(t, "Nike Fuel Band"), Distance: 2.0, Load: 50000, MinRate: 300000}); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(600, 4)
	if err != nil {
		t.Fatal(err)
	}
	mr := res.Members[0]
	if mr.Bits <= 0 {
		t.Fatal("no bits delivered under the floor")
	}
	if f := mr.ModeBits[phy.ModeBackscatter] / mr.Bits; f > 0.05 {
		t.Errorf("QoS member still used %v backscatter@10k", f)
	}
	// The same member without a floor leans on backscatter.
	h2 := New(dev(t, "iPhone 6S"), nil)
	if err := h2.Add(Member{Device: dev(t, "Nike Fuel Band"), Distance: 2.0, Load: 50000}); err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Run(600, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f := res2.Members[0].ModeBits[phy.ModeBackscatter] / res2.Members[0].Bits; f < 0.1 {
		t.Errorf("unconstrained member used only %v backscatter", f)
	}
}

// TestHubQuarantinesWanderingMember: a member that walks out of range
// mid-run is quarantined with a typed error after its strike budget,
// while the healthy members' deliveries match a run without it.
func TestHubQuarantinesWanderingMember(t *testing.T) {
	build := func(withWanderer bool) *Hub {
		h := New(dev(t, "iPhone 6S"), nil)
		for _, m := range []Member{
			{Device: dev(t, "Nike Fuel Band"), Distance: 0.4, Load: 1000},
			{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000},
		} {
			if err := h.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		if withWanderer {
			err := h.Add(Member{
				Device:   dev(t, "Pivothead"),
				Distance: 0.6,
				Walk:     sim.LinearWalk{Start: 0.6, End: 2000, Duration: 1800},
				Load:     200000,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	const horizon = 3600
	res, err := build(true).Run(horizon, 12)
	if err != nil {
		t.Fatalf("a wandering member aborted the whole run: %v", err)
	}
	wanderer := res.Members[2]
	if !wanderer.Quarantined {
		t.Fatal("member at 2 km was never quarantined")
	}
	if !errors.Is(wanderer.Err, ErrMemberQuarantined) {
		t.Errorf("quarantine error %v does not wrap ErrMemberQuarantined", wanderer.Err)
	}
	if !errors.Is(wanderer.Err, core.ErrOutOfRange) {
		t.Errorf("quarantine error %v does not carry its out-of-range cause", wanderer.Err)
	}
	if res.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1", res.Quarantines)
	}
	if wanderer.Bits <= 0 {
		t.Error("wanderer delivered nothing while still in range")
	}

	// The healthy members must be unaffected (switch-overhead tolerance).
	ref, err := build(false).Run(horizon, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, want := res.Members[i], ref.Members[i]
		if got.Quarantined || got.Err != nil {
			t.Errorf("healthy member %s: quarantined=%v err=%v", got.Member.Device.Name, got.Quarantined, got.Err)
		}
		if want.Bits <= 0 {
			t.Fatalf("reference member %s delivered nothing", want.Member.Device.Name)
		}
		if diff := math.Abs(got.Bits-want.Bits) / want.Bits; diff > 0.01 {
			t.Errorf("%s: %v bits with wanderer vs %v without (%.2f%% off)",
				got.Member.Device.Name, got.Bits, want.Bits, 100*diff)
		}
	}
}

// TestHubMemberOutageRounds: a periodic carrier dropout costs the member
// its affected rounds — counted, not quarantined, because successful
// rounds in between reset the strike count.
func TestHubMemberOutageRounds(t *testing.T) {
	h := New(dev(t, "iPhone 6S"), nil)
	err := h.Add(Member{
		Device:   dev(t, "Apple Watch"),
		Distance: 0.4,
		Load:     5000,
		Faults:   &faults.Dropout{Start: 0, Period: 900, Duration: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3600
	res, err := h.Run(horizon, 12) // 300 s rounds; outages hit rounds 0, 3, 6, 9
	if err != nil {
		t.Fatal(err)
	}
	mr := res.Members[0]
	if mr.OutageRounds != 4 || res.OutageRounds != 4 {
		t.Errorf("outage rounds = %d (total %d), want 4", mr.OutageRounds, res.OutageRounds)
	}
	if mr.Quarantined {
		t.Errorf("isolated outages quarantined the member: %v", mr.Err)
	}
	want := float64(mr.Member.Load) * horizon * 8 / 12
	if math.Abs(mr.Bits-want)/want > 0.01 {
		t.Errorf("bits = %v, want the 8 clean rounds' %v", mr.Bits, want)
	}
}

// TestHubBrownoutChargesMember: a TX-side brownout charges the member's
// battery for the harvesting shortfall while the hub's bill is unchanged.
func TestHubBrownoutChargesMember(t *testing.T) {
	run := func(inj faults.Injector) MemberResult {
		h := New(dev(t, "iPhone 6S"), nil)
		if err := h.Add(Member{Device: dev(t, "Apple Watch"), Distance: 0.4, Load: 5000, Faults: inj}); err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(3600, 12)
		if err != nil {
			t.Fatal(err)
		}
		return res.Members[0]
	}
	base := run(nil)
	brown := run(&faults.Brownout{Duration: 1e9, Scale: 2, Affected: faults.SideTX})
	if ratio := float64(brown.MemberDrain / base.MemberDrain); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("member drain ratio = %v under a 2× TX brownout, want ≈2", ratio)
	}
	if ratio := float64(brown.HubDrain / base.HubDrain); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("hub drain ratio = %v under a TX-only brownout, want ≈1", ratio)
	}
	if math.Abs(brown.Bits-base.Bits)/base.Bits > 0.01 {
		t.Errorf("bits changed under brownout: %v vs %v", brown.Bits, base.Bits)
	}
}
