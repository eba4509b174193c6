package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"braidio/internal/lp"
	"braidio/internal/phy"
	"braidio/internal/units"
)

func TestQoSNoConstraintEqualsOptimize(t *testing.T) {
	links := linksAt(t, 0.3)
	plain, err := Optimize(links, 7200, 3600)
	if err != nil {
		t.Fatal(err)
	}
	qos, err := OptimizeQoS(links, 7200, 3600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Bits-qos.Bits) > 1e-6 {
		t.Errorf("zero-rate QoS %v != plain %v", qos.Bits, plain.Bits)
	}
}

// TestQoSLooseConstraint: at 0.3 m every link runs ~900 kbps goodput, so
// a 200 kbps floor changes nothing.
func TestQoSLooseConstraint(t *testing.T) {
	links := linksAt(t, 0.3)
	plain, _ := Optimize(links, 7200, 3600)
	qos, err := OptimizeQoS(links, 7200, 3600, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Bits-qos.Bits)/plain.Bits > 1e-6 {
		t.Errorf("loose QoS changed the solution: %v vs %v", qos.Bits, plain.Bits)
	}
	if qos.Throughput() < 200_000 {
		t.Errorf("throughput %v below the floor", qos.Throughput())
	}
}

// TestQoSBindsAtMidRange: at 2.0 m backscatter only runs 10 kbps. A
// small battery streaming 300 kbps video to a phone cannot use it, even
// though power-proportionality wants it; the QoS optimizer drops the
// slow mode and pays with lifetime.
func TestQoSBindsAtMidRange(t *testing.T) {
	links := linksAt(t, 2.0)
	e1, e2 := units.Joule(720), units.Joule(23580) // band → phone
	plain, err := Optimize(links, e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fraction(phy.ModeBackscatter) == 0 {
		t.Skip("premise: plain optimizer should braid some 10 kbps backscatter here")
	}
	qos, err := OptimizeQoS(links, e1, e2, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if qos.Throughput() < 300_000*0.999 {
		t.Errorf("QoS throughput %v below the 300 kbps floor", qos.Throughput())
	}
	// The floor costs delivered bits relative to unconstrained braiding.
	if qos.Bits > plain.Bits {
		t.Errorf("QoS delivered more bits (%v) than unconstrained (%v)?", qos.Bits, plain.Bits)
	}
	// And it sheds the slow mode (nearly) entirely: the residual 10 kbps
	// share is bounded by the throughput algebra.
	if f := qos.Fraction(phy.ModeBackscatter); f > 0.05 {
		t.Errorf("QoS kept %v backscatter@10k under a 300 kbps floor", f)
	}
}

// TestQoSRateUnreachable: beyond every link's speed.
func TestQoSRateUnreachable(t *testing.T) {
	links := linksAt(t, 0.3)
	_, err := OptimizeQoS(links, 3600, 3600, 10_000_000)
	if !errors.Is(err, ErrRateUnreachable) {
		t.Errorf("err = %v, want ErrRateUnreachable", err)
	}
}

// TestQoSRateInputs: a NaN floor is an input error naming the rate
// rather than an unbounded LP; a floor that is not positive sets no
// floor, and +Inf is unreachable.
func TestQoSRateInputs(t *testing.T) {
	links := linksAt(t, 2.0)
	plain, err := Optimize(links, 72, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeQoS(links, 72, 3600, units.BitRate(math.NaN())); err == nil ||
		!strings.Contains(err.Error(), "NaN") || errors.Is(err, lp.ErrUnbounded) {
		t.Errorf("NaN floor: err = %v, want an input error naming the rate", err)
	}
	for _, r := range []float64{0, -1, math.Inf(-1)} {
		a, err := OptimizeQoS(links, 72, 3600, units.BitRate(r))
		if err != nil || a.Bits != plain.Bits {
			t.Errorf("floor %v: %v, %v; want Optimize's %v bits", r, a, err, plain.Bits)
		}
	}
	if _, err := OptimizeQoS(links, 72, 3600, units.BitRate(math.Inf(1))); !errors.Is(err, ErrRateUnreachable) {
		t.Errorf("+Inf floor: err = %v, want ErrRateUnreachable", err)
	}
}

// TestQoSFallbackKeepsDeadline: when power-proportionality and the rate
// floor conflict, the deadline wins and the mixture stays rate-feasible.
func TestQoSFallbackKeepsDeadline(t *testing.T) {
	links := linksAt(t, 2.0)
	// An extreme battery ratio whose proportional point needs lots of
	// slow backscatter.
	qos, err := OptimizeQoS(links, 1, 1e9, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if qos.Throughput() < 300_000*0.999 {
		t.Errorf("fallback mixture throughput %v below floor", qos.Throughput())
	}
	sum := 0.0
	for _, p := range qos.P {
		if p < -1e-9 {
			t.Errorf("negative fraction %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("fractions sum to %v", sum)
	}
}

// TestQoSMonotoneInRate: tightening the floor never increases delivered
// bits.
func TestQoSMonotoneInRate(t *testing.T) {
	links := linksAt(t, 2.0)
	e1, e2 := units.Joule(720), units.Joule(23580)
	prev := math.Inf(1)
	for _, rate := range []units.BitRate{0, 100_000, 300_000, 600_000, 900_000} {
		qos, err := OptimizeQoS(links, e1, e2, rate)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if qos.Bits > prev*(1+1e-9) {
			t.Errorf("bits increased as the floor tightened to %v", rate)
		}
		prev = qos.Bits
	}
}

// TestQoSScratchReuseMatchesFresh: one QoSScratch, reused in order
// across this file's cases — no floor, a loose floor, a binding floor,
// an unreachable rate, the infeasible LP's vertex fallback and the
// tightening sweep — then at distances with two modes and one, answers
// each exactly as a fresh OptimizeQoS does, so stale buffers would
// show.
func TestQoSScratchReuseMatchesFresh(t *testing.T) {
	cases := []struct {
		d      units.Meter
		e1, e2 units.Joule
		rate   units.BitRate
	}{
		{0.3, 7200, 3600, 0},
		{0.3, 7200, 3600, 200_000},
		{2.0, 720, 23580, 300_000},
		{0.3, 3600, 3600, 10_000_000},
		{2.0, 1, 1e9, 300_000},
		{2.0, 720, 23580, 0},
		{2.0, 720, 23580, 100_000},
		{2.0, 720, 23580, 600_000},
		{2.0, 720, 23580, 900_000},
		{3, 720, 23580, 300_000},
		{6, 7200, 3600, 100_000},
		{2.0, 1, 1e9, 300_000},
		{4, 720, 23580, 600_000},
		{0.3, 7200, 3600, 200_000},
	}
	bits := math.Float64bits
	var s QoSScratch
	for _, c := range cases {
		links := linksAt(t, c.d)
		want, werr := OptimizeQoS(links, c.e1, c.e2, c.rate)
		got, gerr := s.Optimize(links, c.e1, c.e2, c.rate)
		what := fmt.Sprintf("d=%v ratio=%v/%v rate=%v", float64(c.d), float64(c.e1), float64(c.e2), float64(c.rate))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, want %v", what, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if &got.Links[0] != &want.Links[0] || len(got.P) != len(want.P) ||
			bits(float64(got.TX)) != bits(float64(want.TX)) || bits(float64(got.RX)) != bits(float64(want.RX)) ||
			bits(got.Bits) != bits(want.Bits) {
			t.Fatalf("%s: got %+v, want %+v", what, got, want)
		}
		for i := range want.P {
			if bits(got.P[i]) != bits(want.P[i]) {
				t.Fatalf("%s: P = %v, want %v", what, got.P, want.P)
			}
		}
	}
}

func TestAllocationThroughput(t *testing.T) {
	links := linksAt(t, 0.3)
	alloc, _ := Optimize(links, 3600, 3600)
	th := alloc.Throughput()
	// All links at ~900 kbps goodput (passive a bit lower): mixture in
	// the 800–940 kbps band.
	if float64(th) < 0.6e6 || float64(th) > 1e6 {
		t.Errorf("throughput = %v", th)
	}
	empty := &Allocation{Links: links, P: []float64{0, 0, 0}}
	if empty.Throughput() != 0 {
		t.Error("empty allocation throughput should be 0")
	}
}

// BenchmarkOptimizeQoS times one rate-floored solve at 2 m, where a
// 300 kbps floor binds: cold through OptimizeQoS, which builds fresh
// buffers, and warm through one QoSScratch reused across solves, as a
// rate-floored member's braid runs it.
func BenchmarkOptimizeQoS(b *testing.B) {
	links := phy.NewModel().Characterize(2.0)
	e1, e2 := units.Joule(720), units.Joule(23580)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := OptimizeQoS(links, e1, e2, 300_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		var s QoSScratch
		for i := 0; i < b.N; i++ {
			if _, err := s.Optimize(links, e1, e2, 300_000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
