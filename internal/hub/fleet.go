// Fleet-scale simulation: many independent hub stars run concurrently
// over the shared worker pool. A fleet is the unit the paper's
// population-level questions need — "across a building of N phones each
// serving M wearables, what fraction of hubs survive the day?" — and
// the unit the engine's performance work targets: shards are
// embarrassingly parallel, each shard's run takes its working set from
// net's scratch pool, and the sharded link cache keeps concurrent
// planners from serializing on one lock.
//
// Determinism: shard i draws every randomized parameter from
// rng.Substreams(Seed, Shards)[i], whose layout depends only on (Seed,
// Shards); shards write only their own result slot and are merged in
// shard order. A fleet run is therefore bit-identical at any Workers
// count, extending the round engine's guarantee one level up.

package hub

import (
	"errors"
	"fmt"

	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// Builder constructs one fleet shard's hub. It receives the shard index
// and the shard's private random stream — every randomized member
// parameter (distance, load, walk, fault seed) must be drawn from that
// stream, never from shared state, so shards stay independent and the
// fleet deterministic. The returned hub must not be shared between
// shards.
type Builder func(shard int, stream *rng.Stream) (*Hub, error)

// Fleet is a population of independent hub stars simulated over one
// worker pool. Configure the fields, then call Run.
type Fleet struct {
	// Shards is the number of independent hubs to simulate.
	Shards int
	// Workers bounds the pool running shards concurrently: 0 selects
	// GOMAXPROCS, 1 runs shards sequentially. Results are bit-identical
	// at any value. Shard hubs always plan with Workers=1 — the fleet
	// parallelizes across shards, not within them, so the pool is never
	// oversubscribed.
	Workers int
	// Seed keys the per-shard rng substreams. Same seed, same fleet.
	Seed uint64
	// Build constructs each shard's hub.
	Build Builder
	// Obs, when non-nil, is propagated to every shard hub whose Builder
	// left Obs unset. Shards record concurrently into one recorder; all
	// record operations commute, so Canonical snapshots stay
	// bit-identical at any Workers count.
	Obs *obs.Recorder
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	// Horizon is the wall-clock span each shard simulated.
	Horizon units.Second
	// Shards holds per-shard outcomes in shard order (nil for shards
	// whose build or run failed — see Run's joined error).
	Shards []*Result
}

// TotalBits sums delivered bits across every shard and member.
func (f *FleetResult) TotalBits() float64 {
	total := 0.0
	for _, r := range f.Shards {
		if r != nil {
			total += r.TotalBits()
		}
	}
	return total
}

// HubDrain sums the hubs' radio energy across shards.
func (f *FleetResult) HubDrain() units.Joule {
	var total units.Joule
	for _, r := range f.Shards {
		if r != nil {
			total += r.HubDrain
		}
	}
	return total
}

// Exhausted counts shards whose hub battery died before the horizon.
func (f *FleetResult) Exhausted() int {
	n := 0
	for _, r := range f.Shards {
		if r != nil && r.HubExhausted {
			n++
		}
	}
	return n
}

// Quarantines counts quarantined members across the whole fleet.
func (f *FleetResult) Quarantines() int {
	n := 0
	for _, r := range f.Shards {
		if r != nil {
			n += r.Quarantines
		}
	}
	return n
}

// Solves returns the fleet-wide LP solve and allocation-reuse totals —
// the cache-effectiveness counters the perf work tracks.
func (f *FleetResult) Solves() (lpSolves, allocReuses int) {
	for _, r := range f.Shards {
		if r != nil {
			lpSolves += r.LPSolves
			allocReuses += r.AllocReuses
		}
	}
	return lpSolves, allocReuses
}

// Run simulates every shard for the horizon, fanning shards out over
// the worker pool. Shard errors do not abort the fleet: failed shards
// leave a nil slot in FleetResult.Shards and their errors are joined in
// shard order alongside the partial result.
func (f *Fleet) Run(horizon units.Second, rounds int) (*FleetResult, error) {
	if f.Shards < 1 {
		return nil, fmt.Errorf("hub: fleet needs at least one shard, have %d", f.Shards)
	}
	if f.Build == nil {
		return nil, errors.New("hub: fleet has no Build function")
	}
	streams := rng.Substreams(f.Seed, f.Shards)
	res := &FleetResult{
		Horizon: horizon,
		Shards:  make([]*Result, f.Shards),
	}
	errs := make([]error, f.Shards)
	par.For(f.Workers, f.Shards, func(i int) {
		h, err := f.Build(i, streams[i])
		if err != nil {
			errs[i] = fmt.Errorf("hub: fleet shard %d build: %w", i, err)
			return
		}
		// The fleet parallelizes across shards; nested per-member pools
		// would oversubscribe GOMAXPROCS for no gain.
		h.Workers = 1
		if h.Obs == nil {
			h.Obs = f.Obs
		}
		r, err := h.Run(horizon, rounds)
		if err != nil {
			errs[i] = fmt.Errorf("hub: fleet shard %d: %w", i, err)
			return
		}
		res.Shards[i] = r
	})
	return res, errors.Join(errs...)
}
