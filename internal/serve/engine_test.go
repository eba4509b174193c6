package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// testConfig is the common engine setup: 5% tolerances so tests can
// place updates on either side of the threshold.
func testConfig(rec *obs.Recorder) Config {
	return Config{
		RatioTolerance:    0.05,
		DistanceTolerance: 0.05,
		Window:            64,
		HubEnergy:         10,
		Rec:               rec,
	}
}

func mustEpoch(t *testing.T, e *Engine) EpochResult {
	t.Helper()
	res, err := e.RunEpoch()
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	return res
}

// TestDirtySetTolerance walks one member across the tolerance boundary
// in both directions — ratio via energy, then distance — and checks
// exactly the crossings trigger re-plans.
func TestDirtySetTolerance(t *testing.T) {
	e := NewEngine(testConfig(nil))
	if err := e.Register("m1", 1.0, 2.0); err != nil {
		t.Fatalf("register: %v", err)
	}
	res := mustEpoch(t, e)
	if res.Planned != 1 || res.Clean != 0 {
		t.Fatalf("first epoch: planned %d clean %d, want 1/0", res.Planned, res.Clean)
	}
	base, ok := e.PlanFor("m1")
	if !ok {
		t.Fatal("no plan after first epoch")
	}

	steps := []struct {
		name      string
		energy    float64
		distance  float64
		wantPlans int
	}{
		// 1% energy drift: ratio moves 10/1.0 -> 10/1.01, ~1% < 5%.
		{"within ratio tol", 1.01, 2.0, 0},
		// halved battery: ratio doubles, far past 5%.
		{"ratio crosses down", 0.505, 2.0, 1},
		// recover upward past tolerance the other way.
		{"ratio crosses up", 1.0, 2.0, 1},
		// 2% distance drift stays clean.
		{"within distance tol", 1.0, 2.04, 0},
		// 50% distance jump re-characterizes the link.
		{"distance crosses up", 1.0, 3.0, 1},
		// and back down again.
		{"distance crosses down", 1.0, 2.0, 1},
	}
	for _, s := range steps {
		if err := e.Update("m1", units.Joule(s.energy), units.Meter(s.distance)); err != nil {
			t.Fatalf("%s: update: %v", s.name, err)
		}
		res = mustEpoch(t, e)
		if res.Planned != s.wantPlans {
			t.Errorf("%s: planned %d, want %d", s.name, res.Planned, s.wantPlans)
		}
		if res.Planned+res.Clean != 1 {
			t.Errorf("%s: planned+clean = %d, want 1", s.name, res.Planned+res.Clean)
		}
	}

	// The member's plan must reflect the final (restored) inputs.
	final, ok := e.PlanFor("m1")
	if !ok {
		t.Fatal("no final plan")
	}
	if final.Distance != base.Distance || final.Ratio != base.Ratio {
		t.Errorf("final plan inputs (%v, %v) differ from base (%v, %v)",
			final.Ratio, final.Distance, base.Ratio, base.Distance)
	}
	for i := range final.Fractions {
		if final.Fractions[i] != base.Fractions[i] {
			t.Errorf("fraction %d: %v != base %v — same inputs must re-solve identically",
				i, final.Fractions[i], base.Fractions[i])
		}
	}
}

// TestHubEnergyDirtiesAll checks a hub-side budget change past
// tolerance re-plans the whole membership, and one within tolerance
// re-plans nobody.
func TestHubEnergyDirtiesAll(t *testing.T) {
	e := NewEngine(testConfig(nil))
	const n = 8
	for i := 0; i < n; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), 1.0, units.Meter(1.0+0.2*float64(i))); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	if res := mustEpoch(t, e); res.Planned != n {
		t.Fatalf("first epoch planned %d, want %d", res.Planned, n)
	}

	// 1% hub change: every ratio moves 1%, inside the 5% tolerance.
	if err := e.SetHubEnergy(10.1); err != nil {
		t.Fatalf("hub: %v", err)
	}
	if res := mustEpoch(t, e); res.Planned != 0 || res.Clean != n {
		t.Fatalf("within-tolerance hub change: planned %d clean %d, want 0/%d", res.Planned, res.Clean, n)
	}

	// Halved hub budget: everybody is stale.
	if err := e.SetHubEnergy(5); err != nil {
		t.Fatalf("hub: %v", err)
	}
	if res := mustEpoch(t, e); res.Planned != n {
		t.Fatalf("past-tolerance hub change: planned %d, want %d", res.Planned, n)
	}
}

// TestZeroToleranceAlwaysReplans checks the exact-equality regime: with
// zero tolerances every admitted update dirties its member, even a
// bit-identical one... except truly identical inputs still match the
// RatioWithin exact-equality predicate, so they stay clean.
func TestZeroToleranceAlwaysReplans(t *testing.T) {
	cfg := testConfig(nil)
	cfg.RatioTolerance, cfg.DistanceTolerance = 0, 0
	e := NewEngine(cfg)
	if err := e.Register("m1", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, e)

	// Identical re-send: a == b exactly, stays clean.
	if err := e.Update("m1", 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	if res := mustEpoch(t, e); res.Planned != 0 {
		t.Errorf("identical update at zero tol: planned %d, want 0", res.Planned)
	}
	// Any drift at all re-plans.
	if err := e.Update("m1", 1.0000001, 2.0); err != nil {
		t.Fatal(err)
	}
	if res := mustEpoch(t, e); res.Planned != 1 {
		t.Errorf("epsilon update at zero tol: planned %d, want 1", res.Planned)
	}
}

// TestQueueShedding fills the bounded admission queue and checks the
// overflow is shed with ErrShed and counted, then that an epoch drain
// reopens admission.
func TestQueueShedding(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(rec)
	cfg.QueueCap = 4
	e := NewEngine(cfg)

	shed := 0
	for i := 0; i < 10; i++ {
		err := e.Register(fmt.Sprintf("m%d", i), 1.0, 1.0)
		if err != nil {
			if err != ErrShed {
				t.Fatalf("register %d: unexpected error %v", i, err)
			}
			shed++
		}
	}
	if shed != 6 {
		t.Fatalf("shed %d of 10 at cap 4, want 6", shed)
	}
	if got := rec.ServeSheds.Load(); got != 6 {
		t.Fatalf("ServeSheds = %d, want 6", got)
	}
	if res := mustEpoch(t, e); res.Members != 4 {
		t.Fatalf("members after drain = %d, want 4", res.Members)
	}
	// Queue drained: admission is open again.
	if err := e.Register("late", 1.0, 1.0); err != nil {
		t.Fatalf("post-drain register: %v", err)
	}
}

// TestConcurrentUpdatesUnderEpochs hammers the admission surface from
// many goroutines while epochs run concurrently — the scenario the
// race detector checks. Every member must end up planned.
func TestConcurrentUpdatesUnderEpochs(t *testing.T) {
	rec := &obs.Recorder{}
	e := NewEngine(testConfig(rec))
	const writers, perWriter = 8, 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-m%d", w, i)
				if err := e.Register(id, 1.0, units.Meter(1.0+float64(i%40)*0.1)); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				// Half drift past tolerance, half jitter within it.
				energy := 1.0
				if i%2 == 0 {
					energy = 0.5
				} else {
					energy = 1.004
				}
				if err := e.Update(id, units.Joule(energy), units.Meter(1.0+float64(i%40)*0.1)); err != nil {
					t.Errorf("update %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for {
		if _, err := e.RunEpoch(); err != nil {
			t.Errorf("RunEpoch: %v", err)
		}
		select {
		case <-done:
			// Final epoch picks up anything admitted after the last drain.
			res := mustEpoch(t, e)
			if res.Members != writers*perWriter {
				t.Fatalf("members = %d, want %d", res.Members, writers*perWriter)
			}
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					if _, ok := e.PlanFor(fmt.Sprintf("w%d-m%d", w, i)); !ok {
						t.Fatalf("w%d-m%d has no plan after final epoch", w, i)
					}
				}
			}
			if got := rec.ServeRegisters.Load(); got != writers*perWriter {
				t.Fatalf("ServeRegisters = %d, want %d", got, writers*perWriter)
			}
			return
		default:
		}
	}
}

// TestEpochDigestWorkerInvariance runs the identical admitted sequence
// through engines at worker counts 1, 2, and 8 and demands identical
// per-epoch digests — the par determinism contract surfacing at the
// serve layer.
func TestEpochDigestWorkerInvariance(t *testing.T) {
	run := func(workers int) []string {
		cfg := testConfig(nil)
		cfg.Workers = workers
		e := NewEngine(cfg)
		var digests []string
		for i := 0; i < 32; i++ {
			if err := e.Register(fmt.Sprintf("m%d", i), units.Joule(0.5+0.05*float64(i)), units.Meter(0.5+0.15*float64(i))); err != nil {
				t.Fatalf("register: %v", err)
			}
		}
		digests = append(digests, mustEpoch(t, e).Digest)
		for i := 0; i < 32; i += 2 {
			if err := e.Update(fmt.Sprintf("m%d", i), units.Joule(0.2+0.05*float64(i)), units.Meter(0.5+0.15*float64(i))); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		digests = append(digests, mustEpoch(t, e).Digest)
		if err := e.SetHubEnergy(4); err != nil {
			t.Fatalf("hub: %v", err)
		}
		digests = append(digests, mustEpoch(t, e).Digest)
		return digests
	}

	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("epoch %d digest at %d workers = %s, want %s (1 worker)", i+1, workers, got[i], base[i])
			}
		}
	}
}

// TestPlanShape sanity-checks a solved plan: fractions sum to 1, block
// counts fill the window, modes align.
func TestPlanShape(t *testing.T) {
	e := NewEngine(testConfig(nil))
	if err := e.Register("m1", 0.5, 1.5); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, e)
	p, ok := e.PlanFor("m1")
	if !ok {
		t.Fatal("no plan")
	}
	if len(p.Modes) == 0 || len(p.Modes) != len(p.Fractions) || len(p.Modes) != len(p.Blocks) {
		t.Fatalf("misaligned plan: %d modes, %d fractions, %d blocks", len(p.Modes), len(p.Fractions), len(p.Blocks))
	}
	sum, blocks := 0.0, 0
	for i := range p.Fractions {
		sum += p.Fractions[i]
		blocks += p.Blocks[i]
	}
	if d := sum - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	if blocks != e.Config().Window {
		t.Errorf("blocks sum to %d, want window %d", blocks, e.Config().Window)
	}
	if p.Bits <= 0 {
		t.Errorf("non-positive deliverable bits %v", p.Bits)
	}
}

// TestConfigCapsWindow: a hand-built Config's window is capped at
// maxWindow, the bound the journal reader enforces; near math.MaxInt,
// block expansion overflows and the first epoch would never return.
func TestConfigCapsWindow(t *testing.T) {
	e := NewEngine(Config{Window: math.MaxInt})
	if got := e.Config().Window; got != 1<<20 {
		t.Fatalf("Window = %d, want %d", got, 1<<20)
	}
	for _, d := range []units.Meter{0.2, 1, 3, 10} {
		for _, en := range []units.Joule{0.001, 0.1, 10, 100} {
			if err := e.Register(fmt.Sprintf("m-%v-%v", d, en), en, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustEpoch(t, e)
	p, ok := e.PlanFor("m-1-0.1")
	if !ok {
		t.Fatal("no plan")
	}
	blocks := 0
	for _, b := range p.Blocks {
		blocks += b
	}
	if blocks != 1<<20 {
		t.Errorf("blocks sum to %d, want %d", blocks, 1<<20)
	}
}

// TestUpdateUnknownMember checks an update whose register was shed is
// quietly skipped at apply time rather than creating ghost members.
func TestUpdateUnknownMember(t *testing.T) {
	e := NewEngine(testConfig(nil))
	if err := e.Update("ghost", 1.0, 1.0); err != nil {
		t.Fatalf("update admission: %v", err)
	}
	res := mustEpoch(t, e)
	if res.Members != 0 {
		t.Fatalf("members = %d, want 0", res.Members)
	}
	if _, ok := e.PlanFor("ghost"); ok {
		t.Fatal("ghost member acquired a plan")
	}
}

// TestPlanLatencyMetric checks that serve reports each epoch's plan-phase
// time in its own histogram, once per epoch that planned, and leaves the
// single-solve histogram to core.Braid.
func TestPlanLatencyMetric(t *testing.T) {
	rec := obs.NewRecorder()
	e := NewEngine(testConfig(rec))
	for i := 0; i < 4; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), 1, units.Meter(0.5+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	planned, idle := 0, 0
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			// Alternately halve and restore one battery: the ratio
			// crosses the tolerance and that member re-plans.
			if err := e.Update("m0", units.Joule(0.5+0.5*float64(i/2%2)), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if res := mustEpoch(t, e); res.Planned > 0 {
			planned++
		} else {
			idle++
		}
	}
	if planned == 0 || idle == 0 {
		t.Fatalf("want planning and idle epochs, got %d and %d", planned, idle)
	}
	if got := rec.LPSolveLatency.Count(); got != 0 {
		t.Errorf("LPSolveLatency.Count = %d, want 0 (serve runs no single solves)", got)
	}
	if got := rec.ServePlanLatency.Count(); got != uint64(planned) {
		t.Errorf("ServePlanLatency.Count = %d, want %d planning epochs", got, planned)
	}
}
