// Package obs is Braidio's zero-allocation observability layer: the
// metrics and tracing substrate the scheduling engines (internal/core,
// internal/mac, internal/hub) and the PHY link cache report into.
//
// The paper's core claim is an *energy split*: Eq. (1) chooses mode
// fractions so the two endpoints consume in proportion to their battery
// ratio. Evaluating that claim at fleet scale needs first-class
// accounting of mode occupancy (bit and time fractions per mode),
// energy per delivered bit, solver effort (LP solves vs memo reuses and
// their latency), and resilience churn (fallbacks, backoffs,
// quarantines, replans) — without perturbing the engines being
// measured. Everything here is therefore allocation-free on the record
// path and strictly observational: attaching a Recorder never changes a
// single bit of any engine's result.
//
// # Determinism contract
//
// Every record operation is commutative: counters are atomic uint64
// adds, float-valued series are accumulated in fixed-point (each
// observation is quantized deterministically on its own, then added as
// an integer), and histograms bump per-bucket integer counts. Integer
// addition commutes, so a set of observations produces bit-identical
// totals regardless of the interleaving — which is what lets the hub's
// parallel plan phase and the fleet's concurrent shards share one
// Recorder and still snapshot identically at any worker count.
//
// Two metric families are excluded from that contract and zeroed by
// Snapshot.Canonical: wall-clock latency histograms (the bucket an
// observation lands in depends on machine speed) and the process-global
// link-cache counters (concurrent planners racing on a cold cache can
// turn one miss into two). Golden tests pin Canonical snapshots.
//
// The Tracer's event *order* is deterministic only when recorded from a
// sequential context (one MAC session, one hub's commit phase); fleet
// shards sharing a tracer interleave their events nondeterministically.
//
// # No-op default
//
// A nil *Recorder is the default everywhere and costs one pointer
// comparison per record site; uninstrumented runs are bit- and
// allocation-identical to builds without this package (gated by
// AllocsPerRun tests). Create recorders with NewRecorder.
package obs

import (
	"sync/atomic"

	"braidio/internal/phy"
)

// NumModes is the number of PHY operating modes the per-mode series
// track (indexed by phy.Mode in canonical order).
const NumModes = len(phy.Modes)

// Counter is a monotonically increasing event counter: an atomic
// uint64 padded to a cache line so neighbouring counters updated by
// concurrent planners never share a line (the same discipline as the
// link cache's shard counters).
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// FloatCounter accumulates a float-valued series in fixed point: each
// observation is quantized on its own (round-to-nearest at the
// counter's resolution) and added as an integer, so the total is
// bit-identical under any concurrent interleaving — unlike a float sum,
// whose value depends on addition order. The quantization error is
// bounded by half a unit per Add call.
type FloatCounter struct {
	v atomic.Uint64
	// scale is the fixed-point resolution in units per 1.0; set once at
	// construction, read-only afterwards.
	scale float64
	_     [48]byte
}

// Add accumulates one non-negative observation. Negative and NaN values
// are dropped (engine totals are non-negative by construction; a NaN
// must not poison the accumulator).
func (c *FloatCounter) Add(x float64) {
	if !(x > 0) {
		return
	}
	c.v.Add(uint64(x*c.scale + 0.5))
}

// Load returns the accumulated total, dequantized.
func (c *FloatCounter) Load() float64 {
	if c.scale == 0 {
		return 0
	}
	return float64(c.v.Load()) / c.scale
}

// raw returns the fixed-point accumulator verbatim — the value golden
// tests pin, since it is exactly reproducible.
func (c *FloatCounter) raw() uint64 { return c.v.Load() }

// Fixed-point resolutions for the float series. Chosen so quantization
// is far below measurement interest while uint64 headroom covers
// fleet-scale totals (2^64 at these scales: ~7e16 bits, ~1.8e10 J,
// ~1.8e13 s).
const (
	// bitScale counts bits in 1/256-bit units.
	bitScale = 256
	// energyScale counts energy in nanojoules.
	energyScale = 1e9
	// timeScale counts time in microseconds.
	timeScale = 1e6
)

// Histogram is a fixed-bucket histogram: static upper bounds, one
// atomic count per bucket plus an overflow bucket, and a fixed-point
// sum. Observing is allocation-free and commutative (each observation
// lands in the same bucket regardless of interleaving), so bucket
// counts are deterministic at any worker count whenever the observed
// values themselves are.
type Histogram struct {
	// bounds are the inclusive upper bounds, ascending; values above
	// the last bound land in the overflow bucket counts[len(bounds)].
	bounds []float64
	counts []atomic.Uint64
	count  Counter
	sum    FloatCounter
}

// init prepares a histogram in place over static bounds with the given
// fixed-point sum resolution (in-place because the atomic fields must
// not be copied once shared).
func (h *Histogram) init(bounds []float64, sumScale float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	h.sum.scale = sumScale
}

// Observe records one value. Observing into a histogram that was never
// initialized (a zero Recorder built without NewRecorder) is a no-op —
// counters on such recorders work, so the histograms must not panic.
func (h *Histogram) Observe(v float64) {
	if len(h.counts) == 0 {
		return
	}
	// Binary search for the first bound >= v; the slice is short
	// (tens of buckets), so this stays a handful of compares.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// energyPerBitBounds buckets joules per delivered bit, log-spaced 1–3
// per decade from 0.1 nJ/bit to 10 mJ/bit — backscatter sits near the
// bottom decades, the active radio near 1 µJ/bit, and starved links
// above that.
var energyPerBitBounds = []float64{
	1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7,
	1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
}

// lpLatencyBounds buckets offload-solver wall-clock latency in
// nanoseconds, from sub-microsecond closed-form solves to pathological
// millisecond stalls.
var lpLatencyBounds = []float64{
	250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7, 1e8,
}

// applyLatencyBounds buckets serve epoch apply-phase wall-clock latency
// in nanoseconds. Applies span drained-queue sizes from a handful of
// drift updates to million-member registration waves, so the range
// extends to seconds.
var applyLatencyBounds = []float64{
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7, 1e8, 1e9,
}

// planLatencyBounds buckets serve epoch plan-phase wall-clock latency in
// nanoseconds. A plan characterizes and solves the epoch's whole dirty
// set, from a handful of drifted members to a cold plan of every member
// of a million-member daemon, so the range runs from 10 µs to 10 s.
var planLatencyBounds = []float64{
	1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10,
}

// Recorder is the full metric set the engines report into. All fields
// are safe for concurrent use; record through them only when the
// Recorder pointer is non-nil (every instrumented site guards on that,
// which is what keeps the uninstrumented path free). Create with
// NewRecorder.
type Recorder struct {
	// Braid engine series (internal/core) — one record per completed
	// braid run. In hub runs these count engine executions, which
	// include the snapshot plans that commit-time replans discard (see
	// Replans); hub-level counters below count committed work only.

	// BraidRuns counts completed braid engine executions.
	BraidRuns Counter
	// Epochs counts allocation epochs across all braid runs.
	Epochs Counter
	// LPSolves counts epochs whose allocation came from an actual
	// optimizer solve.
	LPSolves Counter
	// LPWarmStarts counts simplex solves that succeeded starting from a
	// caller-supplied basis (the previous round's) without a phase-1 pass.
	LPWarmStarts Counter
	// LPColdFallbacks counts warm-start attempts that fell back to a
	// cold two-phase solve (stale, infeasible, or degenerate basis).
	LPColdFallbacks Counter
	// BatchRounds counts planning rounds solved through the batched
	// columnar path (one per hub round or serve epoch, not per member).
	BatchRounds Counter
	// AllocReuses counts epochs served from the ratio-keyed memo.
	AllocReuses Counter
	// Switches counts mode transitions (braid schedule transitions and
	// MAC radio reconfigurations alike).
	Switches Counter
	// Bits accumulates delivered payload bits (1/256-bit resolution).
	Bits FloatCounter
	// AirTime accumulates on-air seconds (µs resolution).
	AirTime FloatCounter
	// DrainTX and DrainRX accumulate the energy drawn at the data
	// transmitter and receiver (nJ resolution).
	DrainTX, DrainRX FloatCounter
	// SwitchEnergy accumulates mode-switch overhead energy at both ends
	// (nJ resolution).
	SwitchEnergy FloatCounter
	// ModeBits and ModeTime attribute delivered bits and air time to
	// modes, indexed by phy.Mode.
	ModeBits, ModeTime [NumModes]FloatCounter
	// EnergyPerBit distributes per-run delivered-energy efficiency,
	// (Drain1+Drain2)/Bits in J/bit, over log buckets.
	EnergyPerBit Histogram
	// LPSolveLatency distributes single offload-solve wall-clock latency
	// in nanoseconds. Wall-clock, so excluded from Canonical snapshots.
	LPSolveLatency Histogram

	// MAC session series (internal/mac) — frame-level protocol events.

	// FramesDelivered and FramesLost count data frames.
	FramesDelivered, FramesLost Counter
	// Retransmissions counts extra transmission attempts.
	Retransmissions Counter
	// Probes counts probe frames.
	Probes Counter
	// Recomputes counts allocation recomputations.
	Recomputes Counter
	// Fallbacks counts executed reversions to the active mode;
	// FallbacksSuppressed counts triggers absorbed by the cooldown.
	Fallbacks, FallbacksSuppressed Counter
	// BackoffWaits counts recompute boundaries spent waiting out a
	// re-entry backoff.
	BackoffWaits Counter
	// LinkDeaths counts links declared dead after bounded recovery.
	LinkDeaths Counter

	// Hub engine series (internal/hub) — committed round accounting.

	// HubRounds counts scheduling rounds started, once per live hub.
	HubRounds Counter
	// MemberRounds counts successfully committed member-rounds.
	MemberRounds Counter
	// Replans counts commit-time re-solves after snapshot shortfall.
	Replans Counter
	// Quarantines counts members removed from the round-robin.
	Quarantines Counter
	// OutageRounds counts member-rounds lost to injected outages.
	OutageRounds Counter
	// HubDeaths counts hub batteries that died mid-run.
	HubDeaths Counter

	// Network engine series (internal/net) — multi-hub scheduling with
	// carrier sharing, interference, and 2-hop relays.

	// NetRounds counts scheduling rounds of topologies with more than
	// one hub. A one-hub run — every hub.Run — counts only HubRounds.
	NetRounds Counter
	// RelayRounds counts member-rounds committed through a 2-hop relay
	// (member → neighbor hub → home hub).
	RelayRounds Counter
	// CarrierShares counts member-rounds committed with a borrowed
	// carrier: a neighboring hub's active TX served as the carrier for
	// this braid's backscatter link.
	CarrierShares Counter
	// InterferedRounds counts member-rounds planned with nonzero
	// co-channel interference at the receiving hub.
	InterferedRounds Counter
	// RelayBits accumulates payload bits delivered over 2-hop relays
	// (1/256-bit resolution).
	RelayBits FloatCounter

	// Serve daemon series (internal/serve) — online epoch accounting.

	// ServeRegisters counts admitted member registrations.
	ServeRegisters Counter
	// ServeUpdates counts admitted member/hub state updates.
	ServeUpdates Counter
	// ServeSheds counts requests dropped by admission backpressure (the
	// bounded queue was full or the member cap was hit).
	ServeSheds Counter
	// ServeEpochs counts serving epochs executed.
	ServeEpochs Counter
	// ServePlans counts member plans solved — only dirty members, so
	// ServePlans stays proportional to input drift, not membership.
	ServePlans Counter
	// ServeClean counts member-epochs skipped because the member's
	// inputs stayed within tolerance of its last plan.
	ServeClean Counter
	// ServeSnapshots counts full-state snapshot records written to the
	// journal (each heads a new segment).
	ServeSnapshots Counter
	// ServeRotations counts journal segment rotations (snapshot-triggered
	// seal-and-start-next, including the compaction that follows).
	ServeRotations Counter
	// ServeRecoveries counts daemon startups that restored state from an
	// existing journal directory (snapshot + tail replay).
	ServeRecoveries Counter
	// ServeTornRecords counts partial or corrupt trailing journal records
	// truncated by crash recovery.
	ServeTornRecords Counter
	// ServeJournalErrors counts journal write/sync failures plus every
	// record dropped while the journal was broken.
	ServeJournalErrors Counter
	// ServeApplyLatency distributes serve epoch apply-phase wall-clock
	// latency (queue drain through per-shard op apply) in nanoseconds.
	// Wall-clock, so excluded from Canonical snapshots.
	ServeApplyLatency Histogram
	// ServePlanLatency distributes serve epoch plan-phase wall-clock
	// latency (characterize and solve the dirty set, build and commit
	// plans; the slowest shard) in nanoseconds, once per epoch that
	// planned. Wall-clock, so excluded from Canonical snapshots.
	ServePlanLatency Histogram

	// Tracer, when non-nil, receives mode-switch/fallback/replan/
	// quarantine/hub-death events from sequential engine contexts. Nil
	// disables tracing.
	Tracer *Tracer
}

// NewRecorder returns a ready Recorder with the standard bucket layouts
// and fixed-point resolutions.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.Bits.scale = bitScale
	r.AirTime.scale = timeScale
	r.DrainTX.scale = energyScale
	r.DrainRX.scale = energyScale
	r.SwitchEnergy.scale = energyScale
	r.RelayBits.scale = bitScale
	r.EnergyPerBit.init(energyPerBitBounds, 1e12)
	r.LPSolveLatency.init(lpLatencyBounds, 1)
	r.ServeApplyLatency.init(applyLatencyBounds, 1)
	r.ServePlanLatency.init(planLatencyBounds, 1)
	for i := range r.ModeBits {
		r.ModeBits[i].scale = bitScale
		r.ModeTime[i].scale = timeScale
	}
	return r
}

// Trace records one event on the attached tracer; a nil Recorder or nil
// Tracer makes it a no-op.
func (r *Recorder) Trace(ev Event) {
	if r == nil || r.Tracer == nil {
		return
	}
	r.Tracer.Record(ev)
}

// defaultRecorder is the process-global recorder engines fall back to
// when no explicit Recorder is wired (nil means observability is off —
// the default).
var defaultRecorder atomic.Pointer[Recorder]

// SetDefault installs (or, with nil, removes) the process-global
// default Recorder. Engines resolve their explicit recorder first and
// fall back to this one, which is how the CLIs instrument runs that
// flow through internal layers without threading a pointer everywhere.
func SetDefault(r *Recorder) { defaultRecorder.Store(r) }

// Default returns the process-global default Recorder, or nil.
func Default() *Recorder { return defaultRecorder.Load() }

// Active resolves the recorder an engine should report to: the explicit
// one when non-nil, else the process default (which may itself be nil).
func Active(explicit *Recorder) *Recorder {
	if explicit != nil {
		return explicit
	}
	return defaultRecorder.Load()
}
