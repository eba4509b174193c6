// Package linkcache memoizes the deterministic PHY computations the
// scheduling layer re-runs constantly: link characterization
// (phy.Model.Characterize), per-mode SNR, and per-mode BER at a given
// distance. A phy.Model is a plain value struct that is immutable after
// calibration, so every one of these is a pure function of (model,
// distance[, mode, rate]) — the Fig. 15–17 gain matrices, the hub
// scheduler, and the bidirectional scenarios otherwise recompute
// identical answers thousands of times per run.
//
// Keys embed the model *by value*: mutating a model (fade margin, ARQ
// accounting, payload length) simply keys a different entry, so stale
// reads are impossible. Cached slices are shared between callers and
// must be treated as read-only.
//
// The cache is process-global and safe for concurrent use. To keep a
// fleet of parallel hub engines from serializing on one lock, it is
// striped into 2^k independent shards selected by a hash of the lookup
// key; each shard holds its own tables, lock, and hit/miss counters
// (Snapshot aggregates them). Eviction is per-shard and bounded: a full
// shard drops one resident victim to admit the new entry, so a mobility
// workload that overflows the cache degrades smoothly instead of
// repeatedly flushing whole tables out from under concurrent readers
// (the clear-all stampede the pre-sharded cache suffered).
//
// SetEnabled turns the cache off globally (the golden tests prove
// results are bit-identical either way); core.Braid additionally has a
// per-braid bypass. Because every cached value is a pure function of
// its key, eviction policy and shard layout can never change results —
// only hit rates.
package linkcache

import (
	"math"
	"sync"
	"sync/atomic"

	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// maxEntries bounds the total resident entries per table kind across
// all shards. Steady workloads (fixed scenario distances) stay far
// below it; continuous-mobility workloads churn against the per-shard
// bound instead of growing without bound.
const maxEntries = 4096

// shardBits selects the stripe count: 2^shardBits independent shards.
// 32 shards keep lock hold times negligible for dozens of concurrent
// hub planners while staying small enough that per-shard capacity
// (maxEntries / shardCount) is still useful.
const shardBits = 5

// shardCount is the number of lock stripes.
const shardCount = 1 << shardBits

// maxPerShard bounds each shard's tables so the global footprint stays
// at maxEntries per table kind.
const maxPerShard = maxEntries / shardCount

// linkKey identifies one Characterize result.
type linkKey struct {
	model phy.Model
	d     units.Meter
}

// pointKey identifies one SNR or BER evaluation.
type pointKey struct {
	model phy.Model
	mode  phy.Mode
	rate  units.BitRate
	d     units.Meter
}

// shard is one lock stripe: its own tables and counters. The counters
// are atomics so hits (the hot path) only take the read lock.
type shard struct {
	mu    sync.RWMutex
	links map[linkKey][]phy.ModeLink
	snrs  map[pointKey]units.DB
	bers  map[pointKey]float64

	hits, misses atomic.Uint64
	evictions    atomic.Uint64

	// Pad shards apart so neighbouring stripes' counters do not share a
	// cache line under concurrent planners.
	_ [64]byte
}

var (
	disabled atomic.Bool
	shards   [shardCount]shard
)

func init() {
	for i := range shards {
		shards[i].links = make(map[linkKey][]phy.ModeLink)
		shards[i].snrs = make(map[pointKey]units.DB)
		shards[i].bers = make(map[pointKey]float64)
	}
}

// shardFor selects the stripe for a lookup. Distance is the
// high-cardinality dimension (mobility sweeps thousands of distinct
// separations), so it must dominate the spread; mode/rate and a cheap
// fingerprint of the model's scalar knobs are folded in so distinct
// models and link points do not pile onto one stripe. Models differing
// only in deep rf.Link internals may share a stripe — that costs at
// most capacity sharing, never correctness, because the full model
// value is still part of the map key.
func shardFor(m *phy.Model, mode phy.Mode, rate units.BitRate, d units.Meter) *shard {
	h := rng.Mix64(math.Float64bits(float64(d)))
	h ^= rng.Mix64(uint64(mode)<<32 ^ math.Float64bits(float64(rate)))
	h ^= rng.Mix64(uint64(m.PayloadLen)<<1 ^ math.Float64bits(float64(m.FadeMargin)))
	if m.Retransmit {
		h = rng.Mix64(h)
	}
	return &shards[h>>(64-shardBits)]
}

// evictOne drops one resident entry from a full table. Go's randomized
// map iteration order makes the victim effectively random, which is
// exactly what a scan-heavy mobility workload needs: unlike the old
// clear-all flush, a working set that slightly overflows capacity keeps
// most of its entries resident.
func evictOne[K comparable, V any](t map[K]V) {
	for k := range t {
		delete(t, k)
		return
	}
}

// Enabled reports whether the global cache is active.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns the global cache on or off. Disabling does not flush
// existing entries; re-enabling resumes serving them.
func SetEnabled(on bool) { disabled.Store(!on) }

// Characterize returns m.Characterize(d), memoized. The returned slice is
// shared across callers and must not be mutated.
func Characterize(m *phy.Model, d units.Meter) []phy.ModeLink {
	if disabled.Load() {
		return m.Characterize(d)
	}
	sh := shardFor(m, 0, 0, d)
	k := linkKey{model: *m, d: d}
	sh.mu.RLock()
	ls, ok := sh.links[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return ls
	}
	sh.misses.Add(1)
	ls = m.Characterize(d)
	sh.mu.Lock()
	if _, ok := sh.links[k]; !ok && len(sh.links) >= maxPerShard {
		evictOne(sh.links)
		sh.evictions.Add(1)
	}
	sh.links[k] = ls
	sh.mu.Unlock()
	return ls
}

// SNR returns m.SNR(mode, r, d), memoized — the MAC calls this once per
// frame to synthesize its noisy channel observations.
func SNR(m *phy.Model, mode phy.Mode, r units.BitRate, d units.Meter) units.DB {
	if disabled.Load() {
		return m.SNR(mode, r, d)
	}
	sh := shardFor(m, mode, r, d)
	k := pointKey{model: *m, mode: mode, rate: r, d: d}
	sh.mu.RLock()
	v, ok := sh.snrs[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return v
	}
	sh.misses.Add(1)
	v = m.SNR(mode, r, d)
	sh.mu.Lock()
	if _, ok := sh.snrs[k]; !ok && len(sh.snrs) >= maxPerShard {
		evictOne(sh.snrs)
		sh.evictions.Add(1)
	}
	sh.snrs[k] = v
	sh.mu.Unlock()
	return v
}

// BER returns m.BER(mode, r, d), memoized — the MAC's per-frame loss
// model.
func BER(m *phy.Model, mode phy.Mode, r units.BitRate, d units.Meter) float64 {
	if disabled.Load() {
		return m.BER(mode, r, d)
	}
	sh := shardFor(m, mode, r, d)
	k := pointKey{model: *m, mode: mode, rate: r, d: d}
	sh.mu.RLock()
	v, ok := sh.bers[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return v
	}
	sh.misses.Add(1)
	v = m.BER(mode, r, d)
	sh.mu.Lock()
	if _, ok := sh.bers[k]; !ok && len(sh.bers) >= maxPerShard {
		evictOne(sh.bers)
		sh.evictions.Add(1)
	}
	sh.bers[k] = v
	sh.mu.Unlock()
	return v
}

// maxViewEntries bounds a View's private distance table. A view that
// overflows (continuous-mobility sweeps) evicts one resident victim per
// admit, exactly like the global shards; evicted distances re-resolve
// through the global cache, so the canonical slice per (model, distance)
// never changes identity while it stays resident there.
const maxViewEntries = 4096

// View is a pinned-model handle over the cache. The global tables key
// every lookup by the full phy.Model value — hashing a ~200-byte struct
// per call, which profiles as the single hottest item in a hub round. A
// View fixes the model once and keys its private table by distance
// alone (one float64 hash), delegating misses to the global cache so
// the slices it returns are the same canonical shared slices
// Characterize returns: callers that compare slice identity (the braid
// allocation memo) see exactly the behavior of the global path.
//
// The pinned model must not be mutated while the view is alive —
// mutation would key new entries in the global cache while the view
// kept serving the old model's slices. Engines pin calibrated models
// that are immutable by construction (the same contract the global
// cache's by-value keys rely on).
//
// A View is safe for concurrent use.
type View struct {
	model *phy.Model
	mu    sync.RWMutex
	links map[units.Meter][]phy.ModeLink
}

// NewView pins a model and returns its view.
func NewView(m *phy.Model) *View {
	return &View{model: m, links: make(map[units.Meter][]phy.ModeLink)}
}

// Model returns the pinned model.
func (v *View) Model() *phy.Model { return v.model }

// Characterize returns Characterize(model, d) through the distance-keyed
// fast path. With the global cache disabled it characterizes directly
// and caches nothing, matching the global path bit for bit and
// entry for entry.
func (v *View) Characterize(d units.Meter) []phy.ModeLink {
	if disabled.Load() {
		return v.model.Characterize(d)
	}
	v.mu.RLock()
	ls, ok := v.links[d]
	v.mu.RUnlock()
	if ok {
		return ls
	}
	ls = Characterize(v.model, d) // canonical shared slice
	v.mu.Lock()
	if _, ok := v.links[d]; !ok && len(v.links) >= maxViewEntries {
		evictOne(v.links)
	}
	v.links[d] = ls
	v.mu.Unlock()
	return ls
}

// batchParThreshold is the batch size below which CharacterizeColumns
// stays sequential: striping a handful of rows over the pool costs more
// in goroutine fan-out than it saves.
const batchParThreshold = 64

// CharacterizeColumns fills member k's row of cols for every k with the
// characterization at dists[k], striping rows over the worker pool for
// large batches (each index writes only its own row, so results are
// identical at any worker count). Rows are computed directly, not read
// from the cache; values are bit-identical to Characterize's because
// both run CharacterizeInto. The serve daemon's epoch planner feeds
// core.OptimizeBatch from this.
func (v *View) CharacterizeColumns(workers int, dists []units.Meter, cols *phy.LinkColumns) {
	cols.Reset(len(dists))
	fill := func(i int) { v.model.CharacterizeColumns(cols, i, dists[i]) }
	if len(dists) >= batchParThreshold && workers != 1 {
		par.For(workers, len(dists), fill)
		return
	}
	for i := range dists {
		fill(i)
	}
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count lookups served from / added to the memo
	// since the last ResetStats, summed across shards.
	Hits, Misses uint64
	// Evictions counts resident entries dropped by full shards since the
	// last ResetStats, summed across shards.
	Evictions uint64
	// Entries is the current resident entry count across all tables and
	// shards.
	Entries int
	// Shards is the number of lock stripes the cache runs with.
	Shards int
}

// Snapshot returns the current cache counters, aggregated over every
// shard.
func Snapshot() Stats {
	s := Stats{Shards: shardCount}
	for i := range shards {
		sh := &shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		sh.mu.RLock()
		s.Entries += len(sh.links) + len(sh.snrs) + len(sh.bers)
		sh.mu.RUnlock()
	}
	return s
}

// ResetStats zeroes the hit/miss counters (entries stay resident).
func ResetStats() {
	for i := range shards {
		shards[i].hits.Store(0)
		shards[i].misses.Store(0)
		shards[i].evictions.Store(0)
	}
}

// Flush drops every cached entry in every shard — benchmarks use it to
// measure cold paths.
func Flush() {
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		clear(sh.links)
		clear(sh.snrs)
		clear(sh.bers)
		sh.mu.Unlock()
	}
}
