// Serve engine benchmarks: the registration wave, warm drift-only epoch
// throughput and the contention profile of /v1/plan reads racing a
// running epoch — the numbers the sharded member state exists to move.
// The shards=1
// sub-benchmarks approximate the pre-shard single-lock engine (one
// shard's lock serializes exactly what the global mutex used to), so
// the shards=16 deltas measure the sharding win directly.

package serve

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"braidio/internal/units"
)

// benchConfig is the engine configuration of every serve benchmark, for
// n members.
func benchConfig(shards, workers, n int) Config {
	return Config{
		Shards:            shards,
		Workers:           workers,
		RatioTolerance:    0.05,
		DistanceTolerance: 0.05,
		Window:            64,
		HubEnergy:         10,
		QueueCap:          2*n + 1024,
	}
}

// benchIDs returns the member ids m0 … m(n-1), built once, so timed
// loops format none.
func benchIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	return ids
}

// registerWave registers every id and runs the cold bulk plan.
func registerWave(b *testing.B, e *Engine, ids []string) {
	b.Helper()
	for i, id := range ids {
		if err := e.Register(id, units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			b.Fatal(err)
		}
	}
	if res, err := e.RunEpoch(); err != nil || res.Planned != len(ids) {
		b.Fatalf("cold plan planned %d of %d members: %v", res.Planned, len(ids), err)
	}
}

// benchEngine registers n members and runs the cold bulk plan, leaving
// a warm arena and a fully planned membership. It returns the member
// ids.
func benchEngine(b *testing.B, shards, workers, n int) (*Engine, []string) {
	b.Helper()
	e := NewEngine(benchConfig(shards, workers, n))
	ids := benchIDs(n)
	registerWave(b, e, ids)
	return e, ids
}

// BenchmarkServeRegistrationWave is the daemon's cold start: 100k
// registrations admitted into a fresh engine, then the cold plan that
// solves every member. Only the wave is timed, not building the engine;
// B/member is the heap it allocates per member.
func BenchmarkServeRegistrationWave(b *testing.B) {
	const n = 100_000
	ids := benchIDs(n)
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("members=%d/shards=%d", n, shards), func(b *testing.B) {
			b.ReportAllocs()
			var alloc uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(benchConfig(shards, 0, n))
				runtime.ReadMemStats(&ms)
				start := ms.TotalAlloc
				b.StartTimer()
				registerWave(b, e, ids)
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				alloc += ms.TotalAlloc - start
				b.StartTimer()
			}
			b.ReportMetric(float64(alloc)/float64(b.N)/n, "B/member")
		})
	}
}

// updateRange admits updates for members [lo, lo+k) at scale× their
// registration energy (alternating back on odd rounds); 0.5 drifts past
// the 5% tolerance, 1.004 jitters within it.
func updateRange(b *testing.B, e *Engine, ids []string, round, lo, k int, scale float64) {
	if round%2 == 1 {
		scale = 1 / scale
	}
	for i := lo; i < lo+k; i++ {
		energy := (0.4 + 0.01*float64(i%40)) * scale
		if err := e.Update(ids[i], units.Joule(energy), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEpochWarmDrift is the steady-state epoch: 500 members
// drifting per round (flipping between two energy levels, so every
// round re-dirties them) out of 50k or 500k, everyone else served by
// their existing plan. Only RunEpoch is timed: the updates are admitted
// with the timer stopped. An epoch that plans its dirty list costs the
// same at either membership.
func BenchmarkServeEpochWarmDrift(b *testing.B) {
	const k = 500
	for _, n := range []int{50_000, 500_000} {
		for _, shards := range []int{1, 16} {
			b.Run(fmt.Sprintf("members=%d/shards=%d", n, shards), func(b *testing.B) {
				e, ids := benchEngine(b, shards, 0, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					updateRange(b, e, ids, i, 0, k, 0.5)
					b.StartTimer()
					if _, err := e.RunEpoch(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServePlanReadDuringEpoch measures GET /v1/plan's engine path
// (PlanFor) issued while RunEpoch's apply phase holds a member-state
// write lock — the reader stall the single global lock caused and
// sharding removes. Each iteration admits a 50k-member jitter wave
// (within tolerance, so the epoch is pure apply — the phase that must
// hold the write lock), starts the epoch, waits until the apply stage
// actually holds some shard's write lock, and times one read against
// that shard. With one shard the read waits out the rest of a 50k-op
// critical section; with 16 shards only that shard's ~3k slice.
//
// Workers is pinned to 1 so lock granularity is the only variable
// between the configs, and GOMAXPROCS is raised to at least 2 so the
// probe goroutine interleaves with the apply stage even on a single
// CPU (kernel preemption between the two OS threads). Reads that miss
// every apply window (the epoch finished first) are skipped, not
// counted. Reports stalled-read p50/p99 in ns and the hit rate.
func BenchmarkServePlanReadDuringEpoch(b *testing.B) {
	const n, wave = 100_000, 50_000
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, ids := benchEngine(b, shards, 1, n)
			// One probe member per shard, so whichever shard the apply
			// stage is holding can be read through.
			probes := make([]string, len(e.shards))
			found := 0
			for i := 0; i < n && found < len(probes); i++ {
				id := ids[i]
				for si, s := range e.shards {
					if probes[si] == "" && e.shardFor(id) == s {
						probes[si] = id
						found++
						break
					}
				}
			}
			if found < len(probes) {
				b.Fatal("some shard has no probe member")
			}
			lat := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				updateRange(b, e, ids, i, 0, wave, 1.004)
				var epochDone atomic.Bool
				done := make(chan error, 1)
				go func() {
					_, err := e.RunEpoch()
					epochDone.Store(true)
					done <- err
				}()
				// Spin until the apply stage holds a shard's write lock,
				// then read through it. TryRLock fails exactly while a
				// writer holds (or waits for) the lock.
			spin:
				for !epochDone.Load() {
					for si, s := range e.shards {
						if s.mu.TryRLock() {
							s.mu.RUnlock()
							continue
						}
						t0 := time.Now()
						if _, ok := e.PlanFor(probes[si]); !ok {
							b.Fatalf("no plan for %s", probes[si])
						}
						lat = append(lat, float64(time.Since(t0)))
						break spin
					}
					runtime.Gosched()
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(lat) == 0 {
				// Too few iterations to land a read in an apply window
				// (1x smoke runs); nothing to report.
				return
			}
			sort.Float64s(lat)
			b.ReportMetric(planQuantile(lat, 0.50), "p50-stall-ns")
			b.ReportMetric(planQuantile(lat, 0.99), "p99-stall-ns")
			b.ReportMetric(float64(len(lat))/float64(b.N), "hit-rate")
		})
	}
}
