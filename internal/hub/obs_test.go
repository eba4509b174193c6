package hub

import (
	"reflect"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// runMixedWithMetrics runs the mixed-population hub (static members,
// walkers, fault injectors, a QoS floor) at a worker count with a fresh
// recorder and returns the canonical snapshot.
func runMixedWithMetrics(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	rec := obs.NewRecorder()
	h := buildMixedHub(t, workers)
	h.Obs = rec
	if _, err := h.Run(3600, 24); err != nil {
		t.Fatal(err)
	}
	return rec.Snapshot().Canonical()
}

// TestHubMetricsIdenticalAcrossWorkers pins the observability layer's
// determinism contract one level above the Result guarantee: the
// *metrics* a run records — including the concurrently-recorded braid
// series from the plan phase — must be bit-identical at any worker
// count once the canonical projection drops the wall-clock and
// process-global sections.
func TestHubMetricsIdenticalAcrossWorkers(t *testing.T) {
	ref := runMixedWithMetrics(t, 1)
	for _, workers := range []int{2, 8} {
		got := runMixedWithMetrics(t, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("canonical metrics diverge between Workers=1 and Workers=%d:\nref: %+v\ngot: %+v",
				workers, ref, got)
		}
	}
}

// TestHubMetricsGolden pins the canonical snapshot of the deterministic
// body-network run to exact values. RawBits is the fixed-point
// accumulator verbatim, so any engine or quantization change shows up
// as a bit-level diff here. Regenerate by running with -v and copying
// the logged values after an intentional engine change.
func TestHubMetricsGolden(t *testing.T) {
	rec := obs.NewRecorder()
	h := bodyNetwork(t)
	h.Workers = 1
	h.Obs = rec
	if _, err := h.Run(3600, 12); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot().Canonical()
	t.Logf("golden: HubRounds=%d MemberRounds=%d BraidRuns=%d Epochs=%d LPSolves=%d AllocReuses=%d RawBits=%d EnergyPerBitCount=%d",
		s.HubRounds, s.MemberRounds, s.BraidRuns, s.Epochs, s.LPSolves, s.AllocReuses, s.RawBits, s.EnergyPerBit.Count)
	golden := map[string][2]uint64{
		"HubRounds":    {s.HubRounds, 12},
		"MemberRounds": {s.MemberRounds, 36},
		"BraidRuns":    {s.BraidRuns, 36},
		"Epochs":       {s.Epochs, 72},
		"LPSolves":     {s.LPSolves, 72},
		"AllocReuses":  {s.AllocReuses, 0},
		"Replans":      {s.Replans, 0},
		"Quarantines":  {s.Quarantines, 0},
		"HubDeaths":    {s.HubDeaths, 0},
		"NetRounds":    {s.NetRounds, 0},
		"RawBits":      {s.RawBits, 189849600000},
		"EPBCount":     {s.EnergyPerBit.Count, 36},
	}
	for name, v := range golden {
		if v[0] != v[1] {
			t.Errorf("%s = %d, want %d", name, v[0], v[1])
		}
	}
}

// TestHubResultUnchangedByRecorder proves attaching a recorder is
// strictly observational: the Result with metrics on is structurally
// identical to the uninstrumented run.
func TestHubResultUnchangedByRecorder(t *testing.T) {
	plain := buildMixedHub(t, 2)
	bare, err := plain.Run(3600, 24)
	if err != nil {
		t.Fatal(err)
	}
	instr := buildMixedHub(t, 2)
	instr.Obs = obs.NewRecorder()
	instr.Obs.Tracer = obs.NewTracer(256)
	withRec, err := instr.Run(3600, 24)
	if err != nil {
		t.Fatal(err)
	}
	aN, aE := normalize(bare)
	bN, bE := normalize(withRec)
	if !reflect.DeepEqual(aN, bN) || !reflect.DeepEqual(aE, bE) {
		t.Errorf("attaching a recorder changed the Result:\nbare: %+v\nwith: %+v", aN, bN)
	}
}

// TestFleetMetricsIdenticalAcrossWorkers extends the guarantee to the
// fleet: shards recording concurrently into one shared recorder still
// snapshot canonically identical at any worker count.
func TestFleetMetricsIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		rec := obs.NewRecorder()
		f := &Fleet{Shards: 6, Workers: workers, Seed: 99, Obs: rec, Build: testBuilder(t, 3)}
		if _, err := f.Run(1800, 8); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot().Canonical()
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(ref, got) {
			t.Errorf("fleet canonical metrics diverge between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestHubTraceEvents checks quarantine and outage events reach the
// tracer with member attribution from the mixed population's dropout
// member.
func TestHubTraceEvents(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Tracer = obs.NewTracer(512)
	h := buildMixedHub(t, 1)
	h.Obs = rec
	res, err := h.Run(3600, 24)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range rec.Tracer.Events() {
		kinds[ev.Kind]++
		if ev.Kind == obs.EvQuarantine && (ev.Member < 0 || ev.Member >= len(res.Members)) {
			t.Errorf("quarantine event has bad member index %d", ev.Member)
		}
	}
	if res.OutageRounds > 0 && kinds[obs.EvOutage] != res.OutageRounds {
		t.Errorf("traced %d outages, Result has %d", kinds[obs.EvOutage], res.OutageRounds)
	}
	if res.Quarantines > 0 && kinds[obs.EvQuarantine] != res.Quarantines {
		t.Errorf("traced %d quarantines, Result has %d", kinds[obs.EvQuarantine], res.Quarantines)
	}
	if s := rec.Snapshot(); s.Quarantines != uint64(res.Quarantines) || s.OutageRounds != uint64(res.OutageRounds) {
		t.Errorf("snapshot counters (%d quarantines, %d outages) disagree with Result (%d, %d)",
			s.Quarantines, s.OutageRounds, res.Quarantines, res.OutageRounds)
	}
}

// BenchmarkHubHourMetrics is BenchmarkHubHour with a recorder attached —
// the pair quantifies the instrumentation overhead DESIGN.md §10 quotes.
func BenchmarkHubHourMetrics(b *testing.B) {
	h := bodyNetwork(b)
	h.Obs = obs.NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(units.Second(3600), 12); err != nil {
			b.Fatal(err)
		}
	}
}
