package rxchain

import (
	"math"
	"strings"
	"testing"

	"braidio/internal/analog"
	"braidio/internal/fading"
	"braidio/internal/linecode"
	"braidio/internal/units"
)

// TestRunnerMatchesRun is the golden identity for the pooled engine: a
// reused Runner must reproduce the allocating Run/RunCoded results
// field-for-field, run after run, across configs of different sizes (so
// stale scratch contents would be caught).
func TestRunnerMatchesRun(t *testing.T) {
	ru := NewRunner()
	cfgs := []Config{
		DefaultConfig(units.Rate100k, 1),
		DefaultConfig(units.Rate1M, 2),
		DefaultConfig(units.Rate10k, 3),
		DefaultConfig(units.Rate100k, 1), // repeat: scratch reuse must not drift
	}
	sizes := []int{2000, 500, 1200, 2000}
	for i, cfg := range cfgs {
		want, err := Run(cfg, sizes[i])
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := ru.Run(cfg, sizes[i], &got); err != nil {
			t.Fatal(err)
		}
		if got != *want {
			t.Fatalf("cfg %d: Runner.Run %+v, Run %+v", i, got, *want)
		}
	}
}

func TestRunnerRunCodedMatchesRunCoded(t *testing.T) {
	ru := NewRunner()
	for i, code := range []linecode.Code{linecode.NRZ, linecode.Manchester, linecode.FM0} {
		cfg := DefaultCodedConfig(units.Rate100k, uint64(i+1))
		cfg.Code = code
		// Generated payload path (data == nil).
		want, err := RunCoded(cfg, nil, 800)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := ru.RunCoded(cfg, nil, 800, &got); err != nil {
			t.Fatal(err)
		}
		if got != *want {
			t.Fatalf("%v generated: Runner %+v vs %+v", code, got, *want)
		}
		// Explicit payload path.
		data := []byte{1, 0, 1, 1, 1, 0, 0, 1}
		want, err = RunCoded(cfg, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ru.RunCoded(cfg, data, 0, &got); err != nil {
			t.Fatal(err)
		}
		if got != *want {
			t.Fatalf("%v explicit: Runner %+v vs %+v", code, got, *want)
		}
	}
}

// TestRunAllBitIdenticalAtAnyWorkerCount pins the sweep determinism
// contract: the parallel sweep equals the sequential loop exactly, for
// every worker count.
func TestRunAllBitIdenticalAtAnyWorkerCount(t *testing.T) {
	var cfgs []Config
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(units.Rate100k, seed)
		cfg.NoiseRMS = 2e-3 * float64(seed)
		cfgs = append(cfgs, cfg)
	}
	const n = 1500
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *r
	}
	for _, workers := range []int{1, 2, 3, 8, 0} {
		got, err := RunAll(cfgs, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cfg %d: %+v vs sequential %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunCodedAllBitIdenticalAtAnyWorkerCount(t *testing.T) {
	var cfgs []CodedConfig
	for i, code := range []linecode.Code{linecode.NRZ, linecode.Manchester, linecode.FM0} {
		cfg := DefaultCodedConfig(units.Rate100k, uint64(i+5))
		cfg.Code = code
		cfgs = append(cfgs, cfg)
	}
	data := []byte{1, 1, 0, 1, 0, 0, 0, 1, 1, 0}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunCoded(cfg, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *r
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := RunCodedAll(cfgs, data, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cfg %d: %+v vs sequential %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	good := DefaultConfig(units.Rate100k, 1)
	bad := good
	bad.SamplesPerBit = 1
	if _, err := RunAll([]Config{good, bad, good}, 100, 2); err == nil {
		t.Fatal("invalid config did not surface")
	} else if !strings.Contains(err.Error(), "too coarse") {
		t.Fatalf("unexpected error %v", err)
	}
	if _, err := RunAll(nil, 100, 2); err != nil {
		t.Fatalf("empty sweep errored: %v", err)
	}
	var codedBad CodedConfig
	if _, err := RunCodedAll([]CodedConfig{codedBad}, nil, 0, 1); err == nil {
		t.Fatal("zero coded config did not surface")
	}
}

// TestRunAllSharedDriftMatchesRun pins the shared drift blocks: configs
// that share a drift key but differ in everything the sines do not hold
// (Level, DriftFraction, NoiseRMS, seed, HighPass) must equal sequential
// Run field for field at every worker count, over several blocks, as
// must the configs that keep calling Sample — one with its own
// PhaseOffset, one with a shorter warm-up, and two static leaks
// (CoherenceTime 0) whose keys would otherwise match.
func TestRunAllSharedDriftMatchesRun(t *testing.T) {
	base := DefaultConfig(units.Rate100k, 1)
	base.SelfInterference = fading.SelfInterference{Level: 1, DriftFraction: 0.1, CoherenceTime: 5e-5}
	vary := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.SelfInterference.Level = 0.3; c.Seed = 2 },
		func(c *Config) { c.SelfInterference.DriftFraction = 0.4; c.Seed = 3 },
		func(c *Config) { c.NoiseRMS = 6e-3; c.Seed = 4 },
		func(c *Config) { c.HighPass = analog.HighPass{}; c.Seed = 5 },
		func(c *Config) { c.SelfInterference.PhaseOffset = 1.25; c.Seed = 6 },
		func(c *Config) { c.WarmupBits = 10; c.Seed = 7 },
		func(c *Config) { c.SelfInterference.CoherenceTime = 0; c.Seed = 8 },
		func(c *Config) { c.SelfInterference.CoherenceTime = 0; c.SelfInterference.Level = 2; c.Seed = 9 },
	}
	cfgs := make([]Config, len(vary))
	for i, v := range vary {
		cfgs[i] = base
		v(&cfgs[i])
	}
	const n = 2*driftBlockBits + 1000
	chains := make([]chain, len(cfgs))
	for i, cfg := range cfgs {
		if err := chains[i].start(cfg, n); err != nil {
			t.Fatal(err)
		}
	}
	drift, blocks := sharedDrift(chains)
	for i := range cfgs {
		if wantShared := i < 5; (drift[i] != nil) != wantShared {
			t.Fatalf("cfg %d: shares a drift block %v, want %v", i, drift[i] != nil, wantShared)
		}
	}
	if len(blocks) != 1 {
		t.Fatalf("%d shared drift blocks, want 1", len(blocks))
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *r
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, workers := range []int{1, 2, 8} {
		got, err := RunAll(cfgs, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			g := got[i]
			if g.Bits != w.Bits || g.Errors != w.Errors || !same(g.ResidualDC, w.ResidualDC) ||
				!same(g.SwingAtComparator, w.SwingAtComparator) {
				t.Fatalf("workers=%d cfg %d: %+v vs sequential %+v", workers, i, g, w)
			}
		}
	}
}

// TestRunnerValidation mirrors TestRunValidation for the pooled entry
// points.
func TestRunnerValidation(t *testing.T) {
	ru := NewRunner()
	var res Result
	if err := ru.Run(DefaultConfig(units.Rate100k, 1), 0, &res); err == nil {
		t.Error("n=0 accepted")
	}
	if err := ru.RunCoded(DefaultCodedConfig(units.Rate100k, 1), nil, 0, &res); err == nil {
		t.Error("coded n=0 with nil data accepted")
	}
}
