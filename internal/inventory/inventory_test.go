package inventory

import (
	"math"
	"testing"

	"braidio/internal/units"
)

func TestInventoriesEveryone(t *testing.T) {
	for _, n := range []int{1, 5, 50, 500} {
		res, err := Run(DefaultConfig(units.Rate100k, 1), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Successes != n {
			t.Errorf("n=%d: %d successes", n, res.Successes)
		}
		if res.Slots != res.Empties+res.Collisions+res.Successes {
			t.Errorf("n=%d: slot accounting broken", n)
		}
		if res.Duration <= 0 || res.ReaderEnergy <= 0 {
			t.Errorf("n=%d: non-positive duration/energy", n)
		}
	}
}

// TestEfficiencyNearALOHAOptimum: the Q algorithm should land within a
// factor of ~2 of the 1/e slotted-ALOHA peak for medium populations.
func TestEfficiencyNearALOHAOptimum(t *testing.T) {
	res, err := Run(DefaultConfig(units.Rate100k, 2), 200)
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Efficiency()
	if eff < 0.18 || eff > 0.5 {
		t.Errorf("efficiency = %v, want in the 1/e neighbourhood", eff)
	}
	if res.SlotsPerTag() > 2.5*math.E {
		t.Errorf("slots/tag = %v vs theoretical minimum %v", res.SlotsPerTag(), math.E)
	}
}

// TestQAdaptsToPopulation: a big swarm drives Q up.
func TestQAdaptsToPopulation(t *testing.T) {
	small, err := Run(DefaultConfig(units.Rate100k, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(DefaultConfig(units.Rate100k, 3), 2000)
	if err != nil {
		t.Fatal(err)
	}
	// The big round must have seen far more collisions handled by frame
	// growth; its cost per tag should not blow up.
	if big.SlotsPerTag() > 4*small.SlotsPerTag()+4 {
		t.Errorf("large-population cost %v slots/tag vs small %v", big.SlotsPerTag(), small.SlotsPerTag())
	}
}

// TestReaderEnergyScalesLinearly: inventorying 10× the tags costs
// roughly 10× the reader energy.
func TestReaderEnergyScalesLinearly(t *testing.T) {
	a, err := Run(DefaultConfig(units.Rate100k, 4), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(units.Rate100k, 4), 500)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b.ReaderEnergy / a.ReaderEnergy)
	if ratio < 6 || ratio > 16 {
		t.Errorf("energy scaling = %v for 10× tags, want ≈10", ratio)
	}
}

// TestTagEnergyTiny: a tag's share of an inventory round is microjoules
// — the asymmetry the whole architecture is about.
func TestTagEnergyTiny(t *testing.T) {
	res, err := Run(DefaultConfig(units.Rate100k, 5), 100)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(res.ReaderEnergy) / float64(res.TagEnergy); ratio < 1000 {
		t.Errorf("reader/tag energy ratio = %v, want thousands", ratio)
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Run(DefaultConfig(units.Rate100k, 9), 100)
	b, _ := Run(DefaultConfig(units.Rate100k, 9), 100)
	if a.Slots != b.Slots || a.Collisions != b.Collisions || a.FinalQ != b.FinalQ {
		t.Error("same-seed rounds diverged")
	}
}

func TestValidation(t *testing.T) {
	cfg := DefaultConfig(units.Rate100k, 1)
	if _, err := Run(cfg, 0); err == nil {
		t.Error("zero tags accepted")
	}
	bad := cfg
	bad.C = 0
	if _, err := Run(bad, 5); err == nil {
		t.Error("zero step accepted")
	}
	bad = cfg
	bad.EmptyBits = 0
	if _, err := Run(bad, 5); err == nil {
		t.Error("zero slot cost accepted")
	}
	bad = cfg
	bad.Rate = 0
	if _, err := Run(bad, 5); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestClampQ(t *testing.T) {
	if clampQ(-1) != 0 || clampQ(20) != 15 || clampQ(7.5) != 7.5 {
		t.Error("clampQ wrong")
	}
}

func TestEmptyResultAccessors(t *testing.T) {
	var r Result
	if r.Efficiency() != 0 || r.SlotsPerTag() != 0 {
		t.Error("zero-value accessors should be 0")
	}
}

func BenchmarkInventory500(b *testing.B) {
	cfg := DefaultConfig(units.Rate100k, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, 500); err != nil {
			b.Fatal(err)
		}
	}
}
