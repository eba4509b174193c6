// Package linkcache memoizes link characterization
// (phy.Model.Characterize), the deterministic PHY computation the
// scheduling layer re-runs constantly. A phy.Model is a plain value
// struct that is immutable after calibration, so a characterization is
// a pure function of (model, distance) — the Fig. 15–17 gain matrices,
// the hub scheduler, and the bidirectional scenarios otherwise
// recompute identical rows thousands of times per run.
//
// Keys identify the model *by value*: mutating a model (fade margin,
// ARQ accounting, payload length, co-channel interference) simply keys
// a different entry, so stale reads are impossible. Rows key on an
// interned model ID, which stands for one model value and is never
// reused. Cached slices are shared between callers and must be treated
// as read-only.
//
// A View pins one model for an engine's lifetime and keys a private
// table by distance and added co-channel interference, the two inputs
// that vary between an engine's lookups; misses resolve through the
// global table. The network scheduler reads its relay legs' links
// there, so a static topology characterizes each interfered leg once
// instead of every round. Its slots read through View.Read, which does
// not store rows in the view, and keep their own last row.
//
// The cache is process-global and safe for concurrent use. To keep a
// fleet of parallel hub engines from serializing on one lock, it is
// striped into 2^k independent shards selected by a hash of the lookup
// key; each shard holds its own table, lock, and hit/miss counters
// (Snapshot aggregates them). Eviction is per-shard and bounded: a full
// shard drops one resident victim to admit the new entry, so a mobility
// workload that overflows the cache degrades smoothly instead of
// repeatedly flushing whole tables out from under concurrent readers
// (the clear-all stampede the pre-sharded cache suffered).
//
// SetEnabled turns the cache off globally (the golden tests prove
// results are bit-identical either way); it is the one switch. Because
// every cached row is a pure function of its key, eviction policy and
// shard layout can never change results — only hit rates.
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

// maxEntries bounds the total resident rows across all shards. Steady
// workloads (fixed scenario distances) stay far below it;
// continuous-mobility workloads churn against the per-shard bound
// instead of growing without bound.
const maxEntries = 4096

// shardBits selects the stripe count: 2^shardBits independent shards.
// 32 shards keep lock hold times negligible for dozens of concurrent
// hub planners while staying small enough that per-shard capacity
// (maxEntries / shardCount) is still useful.
const shardBits = 5

// shardCount is the number of lock stripes.
const shardCount = 1 << shardBits

// maxPerShard bounds each shard's table so the global footprint stays
// at maxEntries.
const maxPerShard = maxEntries / shardCount

// linkKey identifies one Characterize result: the model's intern ID
// (see modelID) and the distance.
type linkKey struct {
	model uint64
	d     units.Meter
}

// shard is one lock stripe: its own table and counters. The counters
// are atomics so hits (the hot path) only take the read lock.
type shard struct {
	mu    sync.RWMutex
	links map[linkKey][]phy.ModeLink

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

// The model intern table maps each phy.Model value to an ID, so link
// rows key on a small integer instead of hashing the whole model. A
// full table (maxModels: engines pin a handful of models, interfered
// rows add one per interference level) is cleared. IDs are never
// reused, so rows keyed by a forgotten ID can never serve another model;
// they go unread until evicted.
const maxModels = 1024

var (
	modelsMu sync.RWMutex
	models   = make(map[phy.Model]uint64)
	lastID   uint64
)

// modelID returns m's intern ID, interning the model value on first
// sight.
func modelID(m *phy.Model) uint64 {
	modelsMu.RLock()
	id, ok := models[*m]
	modelsMu.RUnlock()
	if ok {
		return id
	}
	modelsMu.Lock()
	defer modelsMu.Unlock()
	if id, ok := models[*m]; ok {
		return id
	}
	if len(models) >= maxModels {
		clear(models)
	}
	lastID++
	models[*m] = lastID
	return lastID
}

func init() {
	for i := range shards {
		shards[i].links = make(map[linkKey][]phy.ModeLink)
	}
}

// linkShard selects the stripe for a link row: distance, the
// high-cardinality dimension, spreads the rows, and the model ID keeps
// distinct models apart.
func linkShard(id uint64, d units.Meter) *shard {
	h := rng.Mix64(math.Float64bits(float64(d))) ^ rng.Mix64(id)
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

// SetEnabled turns the global cache on or off. Disabling does not flush
// existing entries; re-enabling resumes serving them. No program turns
// the cache off: this is the lever of the tests that hold results equal
// with the cache on and off (linkcache's own, net's goldens and kept-link
// tests, sim's TestMatrixGoldenCacheOnOff) and of the root
// BenchmarkGainMatrixBluetooth10Uncached.
func SetEnabled(on bool) { disabled.Store(!on) }

// Characterize returns m.Characterize(d), memoized. The returned slice is
// shared across callers and must not be mutated.
func Characterize(m *phy.Model, d units.Meter) []phy.ModeLink {
	if disabled.Load() {
		return m.Characterize(d)
	}
	return characterize(modelID(m), m, d)
}

// characterize is Characterize for a model already interned as id.
func characterize(id uint64, m *phy.Model, d units.Meter) []phy.ModeLink {
	sh := linkShard(id, d)
	k := linkKey{model: id, d: d}
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

// maxViewEntries bounds a View's private table. A view that overflows
// (keys that keep changing, such as a leg whose interference aggregate
// drifts) evicts one resident victim per admit, exactly like the global
// shards; evicted keys re-resolve through the global cache.
const maxViewEntries = 4096

// viewKey identifies one row of a View: a distance and the co-channel
// interference (linear mW) added to the pinned model's own.
type viewKey struct {
	d  units.Meter
	mw float64
}

// View is a pinned-model handle over the cache. NewView interns the
// pinned model once, so the view's global lookups hash a model ID and a
// distance instead of the ~200-byte model value. Its private table keys
// rows by distance and added interference (two float64s), and misses
// resolve through the global cache, so the slices it returns are the
// same shared slices Characterize returns.
//
// Interference is in the key because the network scheduler's receivers
// hear other hubs' carriers, and in a static topology each receiver's
// aggregate repeats round after round. A miss with nonzero interference
// resolves a copy of the pinned model with its Interference raised, so
// there is still one cache behind one SetEnabled switch. Lookups whose
// key rarely repeats (a walker's distance) go through Read, which
// stores nothing in the view.
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
	id    uint64 // model's intern ID
	mu    sync.RWMutex
	links map[viewKey][]phy.ModeLink
}

// NewView pins a model and returns its view.
func NewView(m *phy.Model) *View {
	return &View{model: m, id: modelID(m), links: make(map[viewKey][]phy.ModeLink)}
}

// Characterize returns Characterize(model, d): CharacterizeAt with no
// added interference. The benchmark's linkcache.view_characterize_ns
// probe times it.
func (v *View) Characterize(d units.Meter) []phy.ModeLink {
	return v.CharacterizeAt(d, 0)
}

// CharacterizeAt returns the characterization at distance d of the
// pinned model with its Interference raised by mw linear milliwatts,
// memoized in the view by (d, mw). The returned slice is the global
// cache's canonical slice for that model value and must not be mutated.
// With the global cache disabled it characterizes directly and stores
// nothing, matching the global path bit for bit and entry for entry.
func (v *View) CharacterizeAt(d units.Meter, mw float64) []phy.ModeLink {
	if disabled.Load() {
		return v.Read(d, mw)
	}
	k := viewKey{d: d, mw: mw}
	v.mu.RLock()
	ls, ok := v.links[k]
	v.mu.RUnlock()
	if ok {
		return ls
	}
	ls = v.Read(d, mw)
	v.mu.Lock()
	if _, ok := v.links[k]; !ok && len(v.links) >= maxViewEntries {
		evictOne(v.links)
	}
	v.links[k] = ls
	v.mu.Unlock()
	return ls
}

// Read returns the row CharacterizeAt(d, mw) returns, resolved through
// the global cache without storing it in the view's table: the lookup
// for keys that rarely repeat, such as a walker's distance.
func (v *View) Read(d units.Meter, mw float64) []phy.ModeLink {
	if mw == 0 && !disabled.Load() {
		return characterize(v.id, v.model, d)
	}
	raised := *v.model
	raised.Interference += mw
	return Characterize(&raised, d)
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
// both run CharacterizeInto. Its one caller is the bench module, whose
// serve-epoch replay times it as serve.characterize_ms; the serve engine
// itself fills its columns row by row through phy, rebuilding the rows
// whose distance has not moved since their last plan.
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
	// Hits and Misses count lookups served from / added to the memo,
	// summed across shards.
	Hits, Misses uint64
	// Evictions counts resident entries dropped by full shards, summed
	// across shards.
	Evictions uint64
	// Entries is the current resident row count across all shards.
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
		s.Entries += len(sh.links)
		sh.mu.RUnlock()
	}
	return s
}

// Flush drops every cached entry in every shard — benchmarks use it to
// measure cold paths.
func Flush() {
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		clear(sh.links)
		sh.mu.Unlock()
	}
}
