// Package serve is the online planning engine behind the braidio-serve
// daemon: a multi-tenant, epoch-batched version of the Eq. (1) offload
// planner. Devices register once, stream energy and link updates, and
// read back mode-fraction plans; the engine re-solves only for members
// whose inputs drifted past tolerance since their last plan (the dirty
// set, judged by core.RatioWithin), batches admissions per epoch, sheds
// load when the admission queue is full, and journals every admitted
// operation so a captured session replays bit-identically through the
// same batch planner.
//
// Member state is sharded (see shard.go): each power-of-two shard owns
// its members behind its own lock, epochs pipeline apply → plan →
// commit per shard over internal/par, and /v1/plan reads touch only the
// owning shard — so a million-member epoch no longer serializes every
// read behind one engine-wide mutex.
//
// Determinism contract: a single sequenced router preserves admission
// order within each shard (hub ops broadcast at their admission
// position), plans are solved into index-owned slots, and the epoch
// digest folds the shards' seq-ordered job lists back into global
// registration order — so an epoch's plan set, and the FNV-1a digest
// over it, is bit-identical at any shard count and any worker count.
// That is what Replay checks.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/units"
)

// Config parameterizes an Engine. NewEngine fills every unset field
// with its default, so the zero value is a working configuration.
type Config struct {
	// Workers bounds the planning pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Shards is the member-state shard count, rounded up to a power of
	// two (<= 0 selects a power of two at least GOMAXPROCS) and capped
	// at 1024. Purely operational: digests, journals, and snapshots are
	// bit-identical at any shard count.
	Shards int
	// QueueCap bounds the admission queue; operations arriving when the
	// queue is full are shed (ErrShed, HTTP 503). It bounds admission
	// only: nothing is preallocated, and the queue grows a block at a
	// time with what is admitted.
	QueueCap int
	// RatioTolerance is the symmetric relative tolerance
	// (core.RatioWithin) on the battery ratio E_hub/E_member within
	// which a member's existing plan is reused. Zero demands exact
	// equality (every update dirties its member).
	RatioTolerance float64
	// DistanceTolerance is the same predicate applied to the reported
	// link distance, the input to PHY characterization.
	DistanceTolerance float64
	// Window is the block-schedule window length handed to
	// core.ScheduleBlocks when expanding fractions into frame slots
	// (<= 0 selects 64; anything above 2^20 slots is capped there, the
	// bound the journal reader and braidio-serve -window enforce).
	Window int
	// HubEnergy is the hub-side budget E1 shared by every member's
	// solve (the carrier/hub battery of the paper's asymmetric setup).
	HubEnergy units.Joule
	// JournalFailStop, when a journal is attached, sheds every admission
	// (ErrJournalBroken, HTTP 503) once the journal has failed — the
	// engine stops accepting operations it cannot make durable. Off, the
	// engine keeps serving and the broken journal is visible only through
	// Stats and /healthz.
	JournalFailStop bool
	// Rec receives serve counters and, once Open attaches a journal, its
	// durability counters; Server's /metrics exports it. Nil disables
	// recording.
	Rec *obs.Recorder
}

// maxShards bounds the shard table; beyond this the per-shard fixed
// costs (arena, lock, stage bookkeeping) outweigh any contention win.
const maxShards = 1 << 10

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 1 << 16
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Window > maxWindow {
		c.Window = maxWindow
	}
	if c.HubEnergy <= 0 {
		c.HubEnergy = 10
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Shards > maxShards {
		c.Shards = maxShards
	}
	return c
}

// Plan is one member's current mode-fraction plan.
type Plan struct {
	// Epoch is the epoch the plan was solved in.
	Epoch uint64 `json:"epoch"`
	// Ratio is the battery ratio E_hub/E_member the plan was solved at;
	// the dirty-set predicate compares fresh updates against it.
	Ratio float64 `json:"ratio"`
	// Distance is the link distance the plan was characterized at.
	Distance float64 `json:"distance_m"`
	// Modes and Fractions are the allocation, aligned: bit fractions
	// per available mode, summing to 1.
	Modes     []string  `json:"modes"`
	Fractions []float64 `json:"fractions"`
	// Blocks is the largest-remainder expansion of Fractions into
	// contiguous per-mode slot counts over the configured window.
	Blocks []int `json:"blocks"`
	// Bits is the deliverable payload before one endpoint drains.
	Bits float64 `json:"bits"`
}

// opKind discriminates admitted operations.
type opKind uint8

const (
	opRegister opKind = iota
	opUpdate
	opHub
)

// op is one admitted mutation, applied in admission order at the next
// epoch boundary.
type op struct {
	kind opKind
	// shard is the owning shard's index, written by the epoch router so
	// that it hashes each id once.
	shard    uint16
	id       string
	energy   units.Joule
	distance units.Meter
}

// opBlock is one fixed-size block of the admission queue, chained to
// the block filled after it. A block holds planChunk ops, so the spare
// block the queue keeps is planChunk ops' worth, as much scratch as an
// epoch's plan arena holds slots.
type opBlock struct {
	ops  [planChunk]op
	next *opBlock
}

// opQueue is the admission queue: ops in admission order, filled into a
// chain of fixed-size blocks, so a registration wave writes each op
// once instead of regrowing one slice by copying it. spare is a drained
// block, zeroed, that push takes before allocating one. The zero value
// is an empty queue. Guarded by the engine's queueMu.
type opQueue struct {
	head, tail *opBlock
	n          int
	spare      *opBlock
}

// push appends o, starting a block when the tail block is full.
func (q *opQueue) push(o op) {
	i := q.n % planChunk
	if i == 0 {
		b := q.spare
		if b != nil {
			q.spare = nil
		} else {
			b = new(opBlock)
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
	}
	q.tail.ops[i] = o
	q.n++
}

// each calls fn on every queued op, in admission order.
func (q *opQueue) each(fn func(o *op)) {
	left := q.n
	for b := q.head; left > 0; b = b.next {
		ops := b.ops[:min(left, planChunk)]
		for i := range ops {
			fn(&ops[i])
		}
		left -= len(ops)
	}
}

// take empties the queue and returns what it held, for each and
// recycle; the spare stays.
func (q *opQueue) take() opQueue {
	d := opQueue{head: q.head, n: q.n}
	q.head, q.tail, q.n = nil, nil, 0
	return d
}

// recycle hands a taken queue back: its first block, zeroed so that it
// holds no id past the epoch that drained it, becomes the spare unless
// there is one already; every other block is dropped.
func (q *opQueue) recycle(d opQueue) {
	if b := d.head; b != nil && q.spare == nil {
		clear(b.ops[:min(d.n, planChunk)])
		b.next = nil
		q.spare = b
	}
}

// member is one registered device's engine-side state. id and seq are
// immutable after creation; everything else is guarded by the owning
// shard's lock. seq is the member's global registration index — the
// cross-shard sort key that reassembles registration order for the
// digest. live distinguishes a member whose register op has applied
// from one the router pre-created for an op later in the same drain
// (updates admitted before the register must still be skipped, exactly
// as the single-lock engine skipped unknown ids). dirty is set only by
// shard.markDirty, which also queues the member on its shard's dirty
// list, and cleared only by a successful commit. rateCode is the
// phy.LinkColumns.RateCode of the characterization plan was solved
// from, at plan.Distance, so a re-plan at that distance can rebuild the
// link row from it; 0, which no plan's row encodes to (a plan has at
// least one mode), means unknown. Commit writes it with every plan, and
// snapshot restore leaves it 0. (The small fields sit last, sharing one
// word.)
type member struct {
	id       string
	seq      uint64
	energy   units.Joule
	distance units.Meter
	plan     Plan
	live     bool
	dirty    bool
	hasPlan  bool
	rateCode uint8
}

// EpochResult summarizes one RunEpoch: how many members were re-planned
// versus served by their existing plan, and the deterministic digest
// over every plan solved this epoch.
type EpochResult struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
	Planned int    `json:"planned"`
	Clean   int    `json:"clean"`
	Members int    `json:"members"`
	// Digest is the FNV-1a 64 hash over (epoch, id, fraction bits,
	// blocks, bit count) of every plan solved this epoch, in
	// registration order. Bit-identical across replays, worker counts,
	// and shard counts.
	Digest string `json:"digest"`
}

// Engine is the epoch-batched multi-tenant planner. All methods are
// safe for concurrent use; RunEpoch itself must not be called
// concurrently with another RunEpoch (the daemon drives it from a
// single ticker goroutine).
type Engine struct {
	cfg   Config
	model *phy.Model

	queueMu  sync.Mutex
	queue    opQueue
	admitted uint64 // cumulative ops admitted, ever (incl. restored history)

	// mu is the residual global lock: hub budget, epoch counter, and
	// the global registration order (the snapshot/digest iteration
	// order). All member state lives in the shards.
	mu        sync.RWMutex
	hubEnergy units.Joule
	order     []*member // registration order — the deterministic commit order
	epoch     uint64

	// shards own the member state; shardFor masks a SplitMix64 hash of
	// the id into the power-of-two table.
	shards    []*shard
	shardMask uint64
	// nextSeq is the next member's registration index. Written only by
	// the epoch router (under epochMu) and restoreSnapshot (pre-traffic).
	nextSeq uint64
	// slab is where the router and restoreSnapshot carve new members:
	// one array sized to a wave's registrations, not one allocation per
	// member. Its unused tail carries over to later waves while it is at
	// most planChunk members (see trimSlab). Same writers as nextSeq.
	slab []member

	epochMu sync.Mutex // serializes RunEpoch

	// Stage latency rings for /v1/stats percentiles: wall time of each
	// epoch's apply phase (drain-to-applied, max across shards) and plan
	// phase (link rows + batch solve + plan build, max across
	// planning shards). Only epochs that applied (resp. planned) at
	// least one op (member) are recorded. Strictly observational —
	// never touches EpochResult or the digest.
	latMu    sync.Mutex
	planLat  latRing
	applyLat latRing

	journal *Journal // nil when capture is off
}

// NewEngine builds an engine from a config, applying defaults.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		model:     phy.NewModel(),
		hubEnergy: cfg.HubEnergy,
		shards:    make([]*shard, cfg.Shards),
		shardMask: uint64(cfg.Shards - 1),
	}
	for i := range e.shards {
		e.shards[i] = &shard{members: make(map[string]*member)}
	}
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// attachJournal starts capturing admitted operations and epoch digests
// to j. Open attaches before returning the engine, so no operation is
// admitted unjournaled and the replay cannot diverge.
func (e *Engine) attachJournal(j *Journal) {
	e.queueMu.Lock()
	e.journal = j
	e.queueMu.Unlock()
}

// ErrShed reports an operation dropped because the admission queue was
// full — the backpressure signal the HTTP layer maps to 503.
var ErrShed = errors.New("serve: admission queue full, operation shed")

// ErrJournalBroken reports an operation shed under the fail-stop policy
// because the attached journal has failed: the engine refuses to admit
// what it cannot make durable. Also mapped to HTTP 503.
var ErrJournalBroken = errors.New("serve: journal broken, admission refused (fail-stop)")

// admit validates an operation and enqueues it, or sheds it when the
// queue is full (or, under fail-stop, when the journal is broken).
// Register, Update, SetHubEnergy and the journal reader all admit here.
func (e *Engine) admit(o op) error {
	switch {
	case o.kind == opHub:
		if !positiveFinite(float64(o.energy)) {
			return fmt.Errorf("serve: non-positive hub energy %v", float64(o.energy))
		}
	case o.id == "":
		return errors.New("serve: empty member id")
	case !positiveFinite(float64(o.energy)) || !positiveFinite(float64(o.distance)):
		return fmt.Errorf("serve: member %q has non-positive energy %v or distance %v", o.id, float64(o.energy), float64(o.distance))
	}
	e.queueMu.Lock()
	if e.cfg.JournalFailStop && e.journal != nil {
		if err := e.journal.Err(); err != nil {
			e.queueMu.Unlock()
			if e.cfg.Rec != nil {
				e.cfg.Rec.ServeSheds.Add(1)
			}
			return fmt.Errorf("%w: %v", ErrJournalBroken, err)
		}
	}
	if e.queue.n >= e.cfg.QueueCap {
		e.queueMu.Unlock()
		if e.cfg.Rec != nil {
			e.cfg.Rec.ServeSheds.Add(1)
		}
		return ErrShed
	}
	e.queue.push(o)
	e.admitted++
	// Journal inside the critical section: journal order must be
	// admission order or the replay diverges.
	if e.journal != nil {
		e.journal.op(o)
	}
	e.queueMu.Unlock()
	return nil
}

// positiveFinite reports whether v is a usable energy or distance: NaN
// would reach the solver, and ±Inf would break the journal's JSON.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// JournalErr returns the attached journal's sticky error, nil when no
// journal is attached or it is healthy. Surfaced by /healthz and Stats.
func (e *Engine) JournalErr() error {
	e.queueMu.Lock()
	j := e.journal
	e.queueMu.Unlock()
	if j == nil {
		return nil
	}
	return j.Err()
}

// Register admits a new member (or re-registers an existing one; the
// later admission wins, as with any update).
func (e *Engine) Register(id string, energy units.Joule, distance units.Meter) error {
	return e.admit(op{kind: opRegister, id: id, energy: energy, distance: distance})
}

// Update admits an energy/link update for a registered member. Unknown
// ids are rejected at apply time (counted, not fatal).
func (e *Engine) Update(id string, energy units.Joule, distance units.Meter) error {
	return e.admit(op{kind: opUpdate, id: id, energy: energy, distance: distance})
}

// SetHubEnergy admits a hub-side budget change. Since every member's
// ratio shares the hub term, the apply step rechecks the whole
// membership against tolerance.
func (e *Engine) SetHubEnergy(energy units.Joule) error {
	return e.admit(op{kind: opHub, energy: energy})
}

// PlanFor returns the member's current plan. ok is false when the id is
// unknown or not yet planned (registered but no epoch has run). Only
// the owning shard's read lock is taken — plan reads never contend with
// other shards' apply or commit, nor with the engine's global lock.
func (e *Engine) PlanFor(id string) (Plan, bool) {
	s := e.shardFor(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, found := s.members[id]
	if !found || !m.hasPlan {
		return Plan{}, false
	}
	return m.plan, true
}

// Stats is the engine's instantaneous state for /v1/stats.
type Stats struct {
	Members    int     `json:"members"`
	Shards     int     `json:"shards"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_cap"`
	Epoch      uint64  `json:"epoch"`
	HubEnergy  float64 `json:"hub_energy_j"`
	// Admitted is the cumulative count of operations ever admitted,
	// surviving restarts (recovery restores it from the snapshot and
	// replayed tail) — an engine's exact position in an op schedule.
	Admitted uint64 `json:"admitted"`
	// JournalError carries the attached journal's sticky error, empty
	// when healthy or no journal is attached.
	JournalError string `json:"journal_error,omitempty"`
	// PlanP50Millis and PlanP99Millis are percentiles of the per-epoch
	// plan-phase wall time (link rows + batch solve + plan build)
	// over the most recent planning epochs; FirstPlanMillis is the
	// first planning epoch — typically the cold bulk plan of the whole
	// membership — and LastPlanMillis the most recent (warm) one. Zero
	// until an epoch has planned at least one member.
	PlanP50Millis   float64 `json:"plan_p50_ms"`
	PlanP99Millis   float64 `json:"plan_p99_ms"`
	FirstPlanMillis float64 `json:"first_plan_ms"`
	LastPlanMillis  float64 `json:"last_plan_ms"`
	// ApplyP50Millis and ApplyP99Millis are the same percentiles for the
	// apply phase (queue drain through per-shard op apply). Zero until
	// an epoch has applied at least one operation.
	ApplyP50Millis float64 `json:"apply_p50_ms"`
	ApplyP99Millis float64 `json:"apply_p99_ms"`
}

// planQuantile returns the q-quantile of sorted latencies in ns.
func planQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ringPercentiles copies and sorts a latency ring, returning its
// p50/p99 in milliseconds.
func ringPercentiles(r *latRing) (p50, p99 float64) {
	lat := append([]float64(nil), r.buf...)
	sort.Float64s(lat)
	const ms = 1e6
	return planQuantile(lat, 0.50) / ms, planQuantile(lat, 0.99) / ms
}

// Stats reports membership, queue depth, and the last completed epoch.
// It aggregates from the queue, coordination, and latency locks only —
// no shard lock is taken, so stats never stop-the-world a running
// epoch or block plan reads.
func (e *Engine) Stats() Stats {
	e.queueMu.Lock()
	depth := e.queue.n
	admitted := e.admitted
	journal := e.journal
	e.queueMu.Unlock()
	var jerr string
	if journal != nil {
		if err := journal.Err(); err != nil {
			jerr = err.Error()
		}
	}
	e.mu.RLock()
	s := Stats{
		Members:      len(e.order),
		Shards:       len(e.shards),
		QueueDepth:   depth,
		QueueCap:     e.cfg.QueueCap,
		Epoch:        e.epoch,
		HubEnergy:    float64(e.hubEnergy),
		Admitted:     admitted,
		JournalError: jerr,
	}
	e.mu.RUnlock()
	e.latMu.Lock()
	if e.planLat.count > 0 {
		s.PlanP50Millis, s.PlanP99Millis = ringPercentiles(&e.planLat)
		const ms = 1e6
		s.FirstPlanMillis = e.planLat.first / ms
		s.LastPlanMillis = e.planLat.last / ms
	}
	if e.applyLat.count > 0 {
		s.ApplyP50Millis, s.ApplyP99Millis = ringPercentiles(&e.applyLat)
	}
	e.latMu.Unlock()
	return s
}

// planJob snapshots one dirty member's solve inputs. rebuild says the
// member's link row is rebuilt from code instead of characterized, its
// last plan having been characterized at this distance; the plan phase
// clears it when the model refuses the rebuild, and then stores the
// characterized row's code. err is the solve's failure; a solved plan is
// committed straight into the member, where the digest reads it.
type planJob struct {
	m        *member
	energy   units.Joule
	distance units.Meter
	rebuild  bool
	code     uint8
	err      error
}

// slabFor returns the member slab with room for n new members at its
// front, replacing a slab too short to hold them.
func (e *Engine) slabFor(n int) []member {
	if len(e.slab) < n {
		e.slab = make([]member, n)
	}
	return e.slab
}

// trimSlab drops the used members from the slab's front. The unused
// tail is kept for later registrations only while it is at most
// planChunk members, so a wave whose registers mostly named known ids
// leaves no large spare slab behind.
func (e *Engine) trimSlab(used int) {
	e.slab = e.slab[used:]
	if len(e.slab) > planChunk {
		e.slab = nil
	}
}

// RunEpoch drains the admission queue, routes the operations to their
// owning shards (admission order preserved per shard, hub ops broadcast
// at their admission position), pipelines apply → plan → commit across
// the shards over the worker pool, and folds the shards' results back
// into global registration order for the epoch summary and its
// deterministic digest. Journaling (if any) is the caller's job — the
// Journal wrapper logs ops and results around this.
func (e *Engine) RunEpoch() (EpochResult, error) {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()

	e.mu.Lock()
	e.epoch++
	epoch := e.epoch
	hubE := e.hubEnergy
	e.mu.Unlock()

	e.queueMu.Lock()
	drained := e.queue.take()
	// The drain marker sits in the same critical section, so every
	// journaled op unambiguously belongs to exactly one epoch.
	journal := e.journal
	if journal != nil {
		journal.drain(epoch)
	}
	e.queueMu.Unlock()

	applyStart := time.Now()

	// Sequenced router: one pass over the drained queue, fanning each op
	// to its owning shard's queue. Unknown register targets are
	// pre-created here (live=false until their register applies) so the
	// router is the only writer of shard maps and the global order —
	// member seq numbers, and therefore the digest's registration-order
	// merge, are fixed before any shard stage runs.
	//
	// A first pass finds each op's shard and counts each shard's share
	// and the registers among it, so that every routed slice, the member
	// slab, the orders and an empty shard's map grow once instead of by
	// doubling.
	hubApplied, registers := 0, 0
	drained.each(func(o *op) {
		if o.kind == opHub {
			hubApplied++
			return
		}
		o.shard = e.shardIndex(o.id)
		s := e.shards[o.shard]
		s.routed++
		if o.kind == opRegister {
			s.registers++
			registers++
		}
	})
	for _, s := range e.shards {
		s.ops = slices.Grow(s.ops, s.routed+hubApplied)
		s.routed = 0
		s.order = slices.Grow(s.order, s.registers)
		if len(s.members) == 0 && s.registers > 0 {
			// Swapped under the shard lock: /v1/plan readers may hold
			// the read side right now.
			s.mu.Lock()
			s.members = make(map[string]*member, s.registers)
			s.mu.Unlock()
		}
	}
	fresh := e.slabFor(registers)
	carved := 0
	finalHub := hubE
	drained.each(func(o *op) {
		if o.kind == opHub {
			// Broadcast at this admission position: every shard sees the
			// budget change at exactly the sequence point a single-lock
			// apply would have. Counted as applied once, above.
			for _, s := range e.shards {
				s.ops = append(s.ops, *o)
			}
			finalHub = o.energy
			return
		}
		s := e.shards[o.shard]
		if o.kind == opRegister {
			if _, found := s.members[o.id]; !found {
				m := &fresh[carved]
				carved++
				m.id, m.seq = o.id, e.nextSeq
				e.nextSeq++
				// Map insert under the shard lock: /v1/plan readers may
				// hold the read side right now. The unlocked lookup above
				// is safe — this router is the map's only writer.
				s.mu.Lock()
				s.members[o.id] = m
				s.mu.Unlock()
				s.order = append(s.order, m)
			}
		}
		s.ops = append(s.ops, *o)
	})
	e.trimSlab(carved)
	if carved > 0 {
		e.mu.Lock()
		e.order = slices.Grow(e.order, carved)
		for i := range fresh[:carved] {
			e.order = append(e.order, &fresh[i])
		}
		e.mu.Unlock()
	}
	// The shards apply copies: the drained blocks go back to the queue.
	e.queueMu.Lock()
	e.queue.recycle(drained)
	e.queueMu.Unlock()

	// Pipelined shard stages: each shard applies its ops, plans its
	// dirty set through its own arena, and commits — independently, so
	// one shard can be solving while another is still applying. The
	// worker pool splits into shard fan-out × intra-shard kernel
	// workers; determinism does not depend on either split.
	W := e.cfg.Workers
	if W <= 0 {
		W = runtime.GOMAXPROCS(0)
	}
	P := len(e.shards)
	outer := W
	if outer > P {
		outer = P
	}
	inner := W / P
	if inner < 1 {
		inner = 1
	}
	par.For(outer, P, func(si int) {
		e.shards[si].runStage(e, epoch, hubE, inner, applyStart)
	})

	// Commit the hub budget (shards tracked their own local copies).
	if hubApplied > 0 {
		e.mu.Lock()
		e.hubEnergy = finalHub
		e.mu.Unlock()
	}

	// Fold shard results. The first solve error across shards is the one
	// with the lowest member seq — the same "first in registration
	// order" the single-lock engine surfaced.
	applied := hubApplied
	jobsTotal := 0
	planned := 0
	var solveErr error
	var solveErrSeq uint64
	applyNs, planNs := 0.0, 0.0
	for _, s := range e.shards {
		applied += s.applied
		jobsTotal += len(s.jobs)
		planned += s.planned
		if s.firstErr != nil && (solveErr == nil || s.firstErrSeq < solveErrSeq) {
			solveErr, solveErrSeq = s.firstErr, s.firstErrSeq
		}
		if s.applyEndNs > applyNs {
			applyNs = s.applyEndNs
		}
		if len(s.jobs) > 0 && s.planNs > planNs {
			planNs = s.planNs
		}
	}

	if drained.n > 0 {
		if e.cfg.Rec != nil {
			e.cfg.Rec.ServeApplyLatency.Observe(applyNs)
		}
		e.latMu.Lock()
		e.applyLat.observe(applyNs)
		e.latMu.Unlock()
	}
	if jobsTotal > 0 {
		if e.cfg.Rec != nil {
			e.cfg.Rec.ServePlanLatency.Observe(planNs)
			e.cfg.Rec.BatchRounds.Add(1)
		}
		e.latMu.Lock()
		e.planLat.observe(planNs)
		e.latMu.Unlock()
	}

	e.mu.RLock()
	total := len(e.order)
	e.mu.RUnlock()
	clean := total - jobsTotal
	if e.cfg.Rec != nil {
		e.cfg.Rec.ServeEpochs.Add(1)
		e.cfg.Rec.ServePlans.Add(uint64(planned))
		e.cfg.Rec.ServeClean.Add(uint64(clean))
	}
	res := EpochResult{
		Epoch:   epoch,
		Applied: applied,
		Planned: planned,
		Clean:   clean,
		Members: total,
		Digest:  e.epochDigest(epoch, jobsTotal),
	}
	for _, s := range e.shards {
		s.jobs = release(s.jobs)
	}
	if journal != nil {
		journal.epoch(res)
		// Snapshot-triggered rotation: every SnapshotEvery epochs the
		// journal starts a new segment headed by a full-state snapshot
		// (which carries the pending queue) and compacts the old ones.
		if journal.wantSnapshot(epoch) {
			e.snapshotNow(journal)
		}
	}
	return res, solveErr
}

// forEachJobInOrder walks this epoch's planned jobs across all shards
// in ascending member seq — reassembling global registration order from
// the shard-local (already seq-sorted) job lists by linear k-way merge.
// Called after the stage barrier, so the job slices are quiescent; ids,
// seqs and the plans committed this epoch are read without shard locks
// (id/seq are immutable, and only a stage commit writes a plan).
func (e *Engine) forEachJobInOrder(fn func(*planJob)) {
	if len(e.shards) == 1 {
		s := e.shards[0]
		for i := range s.jobs {
			fn(&s.jobs[i])
		}
		return
	}
	idx := make([]int, len(e.shards))
	for {
		best := -1
		var bestSeq uint64
		for si, s := range e.shards {
			if idx[si] < len(s.jobs) {
				if seq := s.jobs[idx[si]].m.seq; best < 0 || seq < bestSeq {
					best, bestSeq = si, seq
				}
			}
		}
		if best < 0 {
			return
		}
		fn(&e.shards[best].jobs[idx[best]])
		idx[best]++
	}
}

// modeNames[mask] is the canonical shared Plan.Modes slice for an
// availability bitmask (bit m set when phy.Mode m is present, names in
// canonical order). Plans share these immutable slices instead of
// allocating per-plan name slices — there are only 2^NumModes of them.
var modeNames = func() (t [1 << phy.NumModes][]string) {
	for mask := range t {
		names := []string{}
		for _, m := range phy.Modes {
			if mask&(1<<uint(m)) != 0 {
				names = append(names, m.String())
			}
		}
		t[mask] = names
	}
	return
}()

// epochDigest hashes the epoch's solved plans in commit (registration)
// order: member id, the exact fraction bit patterns, block counts, and
// deliverable bits. Failed solves contribute their member id with an
// error marker so a replay diverging into an error is caught too. The
// byte stream is identical to the pre-shard engine's digest.
func (e *Engine) epochDigest(epoch uint64, jobsTotal int) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(epoch)
	put(uint64(jobsTotal))
	e.forEachJobInOrder(func(j *planJob) {
		h.Write([]byte(j.m.id))
		if j.err != nil {
			put(^uint64(0))
			return
		}
		p := &j.m.plan
		for _, f := range p.Fractions {
			put(math.Float64bits(f))
		}
		for _, n := range p.Blocks {
			put(uint64(n))
		}
		put(math.Float64bits(p.Bits))
	})
	return fmt.Sprintf("%016x", h.Sum64())
}
