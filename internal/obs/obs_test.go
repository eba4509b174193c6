package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"

	"braidio/internal/phy"
)

func TestCounterAndFloatCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(4)
	if got := c.Load(); got != 7 {
		t.Fatalf("Counter.Load = %d, want 7", got)
	}

	var f FloatCounter
	f.scale = energyScale
	f.Add(1.5)
	f.Add(0.25)
	if got := f.Load(); got != 1.75 {
		t.Fatalf("FloatCounter.Load = %v, want 1.75", got)
	}
	// Negative and NaN observations must be dropped, not poison the sum.
	f.Add(-1)
	f.Add(nan())
	if got := f.Load(); got != 1.75 {
		t.Fatalf("FloatCounter after bad inputs = %v, want 1.75", got)
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestFloatCounterCommutes proves the determinism contract's core: any
// interleaving of the same observation set yields the same raw total.
func TestFloatCounterCommutes(t *testing.T) {
	obsSet := []float64{0.1, 2.5e-7, 3.14159, 42, 1e-9, 0.333333}
	sequential := FloatCounter{scale: energyScale}
	for _, v := range obsSet {
		sequential.Add(v)
	}
	concurrent := FloatCounter{scale: energyScale}
	var wg sync.WaitGroup
	for _, v := range obsSet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent.Add(v)
		}()
	}
	wg.Wait()
	if sequential.raw() != concurrent.raw() {
		t.Fatalf("fixed-point sum not commutative: %d vs %d", sequential.raw(), concurrent.raw())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.init([]float64{1, 10, 100}, 1)
	for _, v := range []float64{0.5, 1, 5, 99, 100, 1e6} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 1, 2, 1} // ≤1, ≤10, ≤100, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if h.Count() != 6 || s.Count != 6 {
		t.Fatalf("Count = %d/%d, want 6", h.Count(), s.Count)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	if tr.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", tr.Cap())
	}
	for i := 0; i < 7; i++ {
		tr.Record(Event{Kind: EvModeSwitch, Round: i})
	}
	if tr.Total() != 7 {
		t.Fatalf("Total = %d, want 7", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Round != 3+i { // oldest retained is round 3
			t.Fatalf("event %d has round %d, want %d", i, ev.Round, 3+i)
		}
	}
	if NewTracer(0).Cap() != DefaultTraceCap {
		t.Fatalf("NewTracer(0) capacity = %d, want %d", NewTracer(0).Cap(), DefaultTraceCap)
	}
}

func TestEventStrings(t *testing.T) {
	kinds := []EventKind{EvModeSwitch, EvFallback, EvReplan, EvQuarantine, EvHubDeath, EvOutage, EvLinkDead}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "event(") || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	ev := Event{Kind: EvQuarantine, Round: 3, Member: 2, Time: 1.5}
	if s := ev.String(); !strings.Contains(s, "member=2") || !strings.Contains(s, "quarantine") {
		t.Fatalf("Event.String = %q", s)
	}
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Trace(Event{Kind: EvFallback}) // must not panic
	withTracer := NewRecorder()
	withTracer.Trace(Event{Kind: EvFallback}) // nil Tracer: no-op
}

func TestActiveAndDefault(t *testing.T) {
	defer SetDefault(nil)
	if Active(nil) != nil {
		t.Fatal("Active(nil) with no default should be nil")
	}
	d := NewRecorder()
	SetDefault(d)
	if Active(nil) != d {
		t.Fatal("Active(nil) should resolve the default")
	}
	explicit := NewRecorder()
	if Active(explicit) != explicit {
		t.Fatal("explicit recorder must win over the default")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) should clear the default")
	}
}

func TestSnapshotDerived(t *testing.T) {
	r := NewRecorder()
	r.Bits.Add(1000)
	r.ModeBits[phy.ModeActive].Add(250)
	r.ModeBits[phy.ModeBackscatter].Add(750)
	r.AirTime.Add(4)
	r.ModeTime[phy.ModeActive].Add(1)
	r.ModeTime[phy.ModeBackscatter].Add(3)
	r.DrainTX.Add(0.002)
	r.DrainRX.Add(0.006)
	s := r.Snapshot()
	if got := s.ModeBitFraction(phy.ModeActive); got != 0.25 {
		t.Fatalf("ModeBitFraction(active) = %v, want 0.25", got)
	}
	if got := s.ModeTimeFraction(phy.ModeBackscatter); got != 0.75 {
		t.Fatalf("ModeTimeFraction(backscatter) = %v, want 0.75", got)
	}
	if got := s.AvgEnergyPerBit(); got != 8e-6 {
		t.Fatalf("AvgEnergyPerBit = %v, want 8e-6", got)
	}
	if got := s.DrainRatio(); got < 0.333 || got > 0.334 {
		t.Fatalf("DrainRatio = %v, want ~1/3", got)
	}
	var empty Snapshot
	if empty.ModeBitFraction(phy.ModeActive) != 0 || empty.AvgEnergyPerBit() != 0 {
		t.Fatal("empty snapshot fractions should be 0")
	}
}

func TestCanonicalZeroesNondeterministicSections(t *testing.T) {
	r := NewRecorder()
	r.Tracer = NewTracer(8)
	r.LPSolveLatency.Observe(1234)
	r.ServeApplyLatency.Observe(5678)
	r.ServePlanLatency.Observe(2.5e9)
	r.Trace(Event{Kind: EvReplan})
	s := r.Snapshot().Canonical()
	for name, h := range map[string]HistogramSnapshot{
		"LPSolveLatency": s.LPSolveLatency, "ServeApplyLatency": s.ServeApplyLatency, "ServePlanLatency": s.ServePlanLatency,
	} {
		if h.Bounds != nil || h.Counts != nil || h.Sum != 0 {
			t.Fatalf("Canonical must drop %s bounds, buckets and sum", name)
		}
		if h.Count != 1 {
			t.Fatalf("Canonical must keep the %s observation count, got %d", name, h.Count)
		}
	}
	if s.Cache != (CacheSnapshot{}) {
		t.Fatal("Canonical must zero the cache section")
	}
	if s.TraceTotal != 0 || s.TraceRetained != 0 {
		t.Fatal("Canonical must zero tracer stats")
	}
}

func TestWriters(t *testing.T) {
	r := NewRecorder()
	r.BraidRuns.Add(2)
	r.Bits.Add(1e6)
	r.ModeBits[phy.ModePassive].Add(1e6)
	r.EnergyPerBit.Observe(2e-7)
	r.ServePlanLatency.Observe(3e9)
	s := r.Snapshot()

	var tbl bytes.Buffer
	if err := s.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "passive") || !strings.Contains(tbl.String(), "braid runs") {
		t.Fatalf("table output missing sections:\n%s", tbl.String())
	}
	if want := `plan mean \(ms\)\s+3000\n`; !regexp.MustCompile(want).MatchString(tbl.String()) {
		t.Fatalf("table output missing %q:\n%s", want, tbl.String())
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "\"BraidRuns\": 2") {
		t.Fatalf("json output missing counter:\n%s", js.String())
	}

	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"braidio_braid_runs_total 2",
		`braidio_mode_bits{mode="passive"} 1e+06`,
		`braidio_energy_per_bit_joules_bucket{le="3e-07"} 1`,
		"braidio_energy_per_bit_joules_count 1",
		// A 3 s plan lands in a finite bucket (the bounds reach 10 s).
		`braidio_serve_plan_latency_nanoseconds_bucket{le="5e+09"} 1`,
		"braidio_serve_plan_latency_nanoseconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
