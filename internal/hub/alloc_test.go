//go:build !race

package hub

import (
	"testing"

	"braidio/internal/obs"
)

// TestHubRunSteadyStateAllocs gates the pooled-scratch claim: once a
// run's fixed setup (Result, batteries, pooled scratch warm-up) is paid,
// additional rounds must be allocation-free. Before the scratch pool,
// every member-round built a fresh core.Braid, schedule buffers, and a
// ModeBits map (~11 allocs per member-round); the gate pins the
// steady-state at effectively zero. Excluded under -race (the detector
// instruments allocations) and run at Workers=1 (par.For spawns
// goroutines, which allocate, at higher counts — worker goroutine cost
// is bounded per round, not per member, and is not what this gate
// measures). The gate runs the body network alone and with a
// rate-floored member added, whose braid solves the QoS LP every epoch
// on the slot's own scratch.
func TestHubRunSteadyStateAllocs(t *testing.T) {
	qos := Member{Device: dev(t, "Apple Watch"), Distance: 0.5, Load: 5000, MinRate: 150000}
	for _, tc := range []struct {
		name  string
		extra []Member
	}{{"body", nil}, {"body+qos", []Member{qos}}} {
		run := func(rounds int) float64 {
			return testing.AllocsPerRun(20, func() {
				h := bodyNetwork(t)
				h.Workers = 1
				for _, m := range tc.extra {
					if err := h.Add(m); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := h.Run(3600, rounds); err != nil {
					t.Fatal(err)
				}
			})
		}
		const extra = 100
		short := run(5)
		long := run(5 + extra)
		perRound := (long - short) / extra
		t.Logf("%s: fixed setup ≈ %.0f allocs; steady-state ≈ %.3f allocs/round (%d members)", tc.name, short, perRound, 3+len(tc.extra))
		if perRound > 0.5 {
			t.Errorf("%s: steady-state allocations: %.2f allocs/round, want ~0 (pooled scratch regressed)", tc.name, perRound)
		}
	}
}

// TestHubRunSteadyStateAllocsInstrumented is the same gate with a
// metrics recorder attached: the instrumented hot path must add zero
// steady-state allocations per round — every record primitive is an
// atomic add into preallocated storage.
func TestHubRunSteadyStateAllocsInstrumented(t *testing.T) {
	rec := obs.NewRecorder()
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			h := bodyNetwork(t)
			h.Workers = 1
			h.Obs = rec
			if _, err := h.Run(3600, rounds); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 100
	short := run(5)
	long := run(5 + extra)
	perRound := (long - short) / extra
	t.Logf("instrumented: fixed setup ≈ %.0f allocs; steady-state ≈ %.3f allocs/round", short, perRound)
	if perRound > 0.5 {
		t.Errorf("instrumented steady-state allocations: %.2f allocs/round, want ~0", perRound)
	}
}
