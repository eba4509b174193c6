// Sharded member state: the engine's membership is striped into a
// power-of-two number of shards selected by a SplitMix64-mixed hash of
// the member id (the same recipe as internal/linkcache's 32-stripe
// table). Each shard owns its members' inputs, dirty flags, dirty list,
// committed plans and their rate codes behind its own RWMutex, so
// admission apply, plan commit, and HTTP plan reads contend only per
// shard — the global lock that used to serialize a million-member epoch
// against every /v1/plan read is reduced to hub-budget and epoch-counter
// bookkeeping.
//
// Epoch pipeline: RunEpoch routes the drained admission queue into
// per-shard op queues with a single sequenced router (admission order is
// preserved within a shard, and hub-budget ops are broadcast to every
// shard at their admission position, so each member observes exactly
// the op sequence it would have under a single lock). Shards then run
// apply → plan → commit independently over internal/par — shard A can
// be solving while shard B is still applying — each with its own
// core.BatchScratch arena, sized to a chunk of planChunk jobs rather
// than to the epoch. An epoch plans the shard's dirty list, so its cost
// follows drift, not membership; only a hub-budget change walks every
// member. A re-planned member whose distance has not moved since its
// last plan has its link row rebuilt from that plan's rate code rather
// than characterized again. A final fold walks the planned jobs in
// global registration order (k-way merge over the shards' seq-sorted job
// lists), so the FNV-1a epoch digest is bit-identical to the single-lock
// engine's at any shard or worker count.

package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"braidio/internal/core"
	"braidio/internal/obs"
	"braidio/internal/par"
	"braidio/internal/rng"
	"braidio/internal/units"
)

// shard owns one stripe of the membership. The mutex guards members,
// order, dirty, and every member's mutable fields; the stage scratch
// (ops, jobs, batch, marks) is owned by the epoch pipeline, which runs at
// most one stage per shard at a time (under the engine's epochMu).
type shard struct {
	mu      sync.RWMutex
	members map[string]*member
	// order is the shard-local registration order — the subsequence of
	// the engine's global order that hashes here. Appended only by the
	// sequenced router, read by the hub-budget recheck.
	order []*member
	// dirty lists every member whose dirty flag is set, each once:
	// markDirty appends, the plan phase sorts it by seq, and commit keeps
	// only the members whose solve failed.
	dirty []*member

	// Epoch-stage scratch, reused across epochs. ops is this epoch's
	// routed admission slice; jobs the dirty set in shard order; batch
	// the shard's private column arena, planChunk slots at most; marks
	// the markDirty calls by reason since a stage last flushed them.
	ops   []op
	jobs  []planJob
	batch core.BatchScratch
	marks [obs.NumDirtyReasons]uint64
	// routed counts the drained member ops the epoch router sends here,
	// so it can grow ops once before routing them.
	routed int

	// Per-epoch stage results, merged by RunEpoch after the pipeline
	// barrier: ops applied, plans committed, the first solve error in
	// shard order (with its member's global seq for cross-shard
	// ordering), and the stage latencies feeding the observability rings.
	applied     int
	planned     int
	firstErr    error
	firstErrSeq uint64
	applyEndNs  float64
	planNs      float64
}

// shardIndex selects a member id's owning shard: FNV-1a over the id
// bytes, finalized through rng.Mix64 so sequential ids ("m1", "m2", ...)
// spread evenly, masked into the power-of-two shard table (at most
// maxShards entries, so the index fits a uint16).
func (e *Engine) shardIndex(id string) uint16 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return uint16(rng.Mix64(h) & e.shardMask)
}

// shardFor returns a member id's owning shard.
func (e *Engine) shardFor(id string) *shard { return e.shards[e.shardIndex(id)] }

// markDirty queues a clean member for the next plan phase. It is the
// only way a member turns dirty; why (an obs.Dirty* reason) is counted
// into the recorder when the shard's next stage flushes its marks.
func (s *shard) markDirty(m *member, why int) {
	m.dirty = true
	s.dirty = append(s.dirty, m)
	s.marks[why]++
}

// drift reports whether fresh inputs have drifted out of tolerance from
// the member's planned inputs, against the hub budget at the op's
// sequence point, and why: obs.DirtyRatio (checked first) or
// obs.DirtyDistance. A member with no plan yet has no planned ratio to
// be within, so it always counts as ratio drift.
func drift(m *member, hubE units.Joule, cfg *Config) (why int, dirty bool) {
	if !m.hasPlan {
		return obs.DirtyRatio, true
	}
	ratio := float64(hubE) / float64(m.energy)
	if !core.RatioWithin(ratio, m.plan.Ratio, cfg.RatioTolerance) {
		return obs.DirtyRatio, true
	}
	if !core.RatioWithin(float64(m.distance), m.plan.Distance, cfg.DistanceTolerance) {
		return obs.DirtyDistance, true
	}
	return 0, false
}

// bySeq orders members by registration index.
func bySeq(a, b *member) int { return cmp.Compare(a.seq, b.seq) }

// runStage is one shard's slice of the epoch pipeline: apply the routed
// ops in admission order under the shard lock, collect the dirty list,
// solve it through the shard's private column arena with no lock held,
// and commit the plans back under the lock. hubE is the hub budget at
// epoch start; broadcast hub markers advance the local copy at their
// admission positions, so dirtiness is evaluated against exactly the
// budget a single-lock apply would have seen. workers bounds the
// intra-shard kernel parallelism (1 when the shard fan-out already
// saturates the pool).
func (s *shard) runStage(e *Engine, epoch uint64, hubE units.Joule, workers int, applyStart time.Time) {
	s.mu.Lock()
	localHub := hubE
	var registers, updates uint64
	for i := range s.ops {
		o := &s.ops[i]
		switch o.kind {
		case opRegister:
			// The router pre-created unknown ids, so the member always
			// exists; the first applied register makes it live.
			m := s.members[o.id]
			m.live = true
			m.energy, m.distance = o.energy, o.distance
			if !m.dirty {
				s.markDirty(m, obs.DirtyRegister)
			}
			registers++
		case opUpdate:
			m, found := s.members[o.id]
			if !found || !m.live {
				continue // raced a shed register, or register not yet applied
			}
			m.energy, m.distance = o.energy, o.distance
			if !m.dirty {
				if why, dirty := drift(m, localHub, &e.cfg); dirty {
					s.markDirty(m, why)
				}
			}
			updates++
		case opHub:
			// Broadcast marker: every member's ratio shares the hub
			// term, so recheck the whole stripe at this sequence point.
			// The walk re-lists the dirty set in seq order as it goes,
			// so the collect step's sort finds it sorted. (Counted as
			// applied once, by the router.)
			localHub = o.energy
			s.dirty = s.dirty[:0]
			for _, m := range s.order {
				if !m.live {
					continue
				}
				if m.dirty {
					s.dirty = append(s.dirty, m)
				} else if _, dirty := drift(m, localHub, &e.cfg); dirty {
					s.markDirty(m, obs.DirtyHub)
				}
			}
		}
	}
	// Collect the dirty set in registration (seq) order — the order the
	// digest merge and the lowest-seq first-error rule depend on — and
	// snapshot its solve inputs, so planning can proceed without the lock.
	// A member whose last plan was characterized at its current distance
	// (bit for bit; distances are positive and finite) has its row
	// rebuilt from the plan's rate code. RunEpoch left s.jobs empty (and
	// nil past planChunk); it is grown once to the dirty list's length,
	// not by doubling.
	slices.SortFunc(s.dirty, bySeq)
	s.jobs = slices.Grow(s.jobs, len(s.dirty))
	for _, m := range s.dirty {
		s.jobs = append(s.jobs, planJob{
			m: m, energy: m.energy, distance: m.distance,
			rebuild: m.rateCode != 0 && float64(m.distance) == m.plan.Distance, code: m.rateCode,
		})
	}
	s.mu.Unlock()
	s.applied = int(registers + updates)
	s.applyEndNs = float64(time.Since(applyStart))
	s.ops = release(s.ops)
	if rec := e.cfg.Rec; rec != nil {
		rec.ServeRegisters.Add(registers)
		rec.ServeUpdates.Add(updates)
		for why, n := range s.marks {
			if n > 0 {
				rec.ServeDirty[why].Add(n)
			}
		}
	}
	s.marks = [obs.NumDirtyReasons]uint64{}

	// Plan phase, lock-free, planChunk jobs at a time through the
	// shard's arena. solveHub is the post-apply hub budget — identical
	// across shards, since every shard saw every hub marker.
	planStart := time.Now()
	solveHub := localHub
	for lo := 0; lo < len(s.jobs); lo += planChunk {
		s.solveChunk(e, s.jobs[lo:min(lo+planChunk, len(s.jobs))], epoch, solveHub, workers)
	}

	// Commit under the shard lock; readers of other shards never notice.
	s.mu.Lock()
	s.firstErr, s.firstErrSeq = nil, 0
	s.dirty = release(s.dirty)
	plannedLocal := 0
	var rows [obs.NumLinkRowSources]uint64
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.rebuild {
			rows[obs.LinkRowsRebuilt]++
		} else {
			rows[obs.LinkRowsCharacterized]++
		}
		if j.err != nil {
			// Out of range or drained: keep the member dirty and queued,
			// so every epoch re-plans it until an update brings it back;
			// surface the shard's first error (jobs are seq-ascending, so
			// first is lowest).
			s.dirty = append(s.dirty, j.m)
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("serve: member %q: %w", j.m.id, j.err)
				s.firstErrSeq = j.m.seq
			}
			continue
		}
		j.m.plan = j.plan
		j.m.hasPlan = true
		j.m.rateCode = j.code
		j.m.dirty = false
		plannedLocal++
	}
	s.mu.Unlock()
	s.planned = plannedLocal
	s.planNs = float64(time.Since(planStart))
	if rec := e.cfg.Rec; rec != nil {
		for src, n := range rows {
			rec.ServeLinkRows[src].Add(n)
		}
	}
}

// release empties an epoch scratch slice (the routed ops, the dirty
// list, the job list, the drained queue) at the end of the epoch that
// used it. A slice whose capacity exceeds planChunk is dropped, so the
// cold plan, a registration wave or a hub change leaves neither its
// length nor the ids, members and superseded plans it points at behind,
// even when no epoch follows; any other is zeroed and kept.
func release[T any](s []T) []T {
	if cap(s) > planChunk {
		return nil
	}
	clear(s)
	return s[:0]
}

// planChunk bounds the shard's column arena: the plan phase solves the
// dirty set this many jobs at a time, so a cold plan of the whole
// membership leaves an arena of planChunk slots behind, not one slot
// per member. Every kernel works per slot, so the chunking moves no bit.
const planChunk = 4096

// solveChunk fills, solves and builds the plans of jobs (at most
// planChunk of them) in the shard's arena: each job's link row, rebuilt
// from its rate code or characterized at its distance, then the offload
// kernel, then plan construction into the job slots.
func (s *shard) solveChunk(e *Engine, jobs []planJob, epoch uint64, hubE units.Joule, workers int) {
	n := len(jobs)
	s.batch.Reset(n)
	s.batch.Cols.Reset(n)
	for i := range jobs {
		s.batch.E1[i] = hubE
		s.batch.E2[i] = jobs[i].energy
	}
	stripe(workers, n, func(k int) {
		j := &jobs[k]
		if j.rebuild && e.model.RebuildColumns(&s.batch.Cols, k, j.code) {
			return
		}
		j.rebuild = false
		e.model.CharacterizeColumns(&s.batch.Cols, k, j.distance)
		j.code = s.batch.Cols.RateCode(k)
	})
	core.OptimizeBatch(&s.batch, workers)
	stripe(workers, n, func(k int) { s.buildPlan(e, &jobs[k], k, epoch, hubE) })
}

// stripe runs fn(k) for every k < n, striped over the worker pool once n
// reaches shardPlanParThreshold. Each index writes only its own slot, so
// the result is the same at any worker count.
func stripe(workers, n int, fn func(k int)) {
	if workers != 1 && n >= shardPlanParThreshold {
		par.For(workers, n, fn)
		return
	}
	for k := range n {
		fn(k)
	}
}

// shardPlanParThreshold is the per-shard job count below which row
// filling and plan construction stay sequential (same rationale as the
// batch kernels' threshold: fanning out a handful of rows costs more than
// it saves).
const shardPlanParThreshold = 64

// buildPlan constructs job j's plan from the shard arena's slot i:
// fractions and mixture from the batch offload kernel, blocks from the
// largest-remainder counts directly, mode names from the canonical
// shared table. Fractions and Blocks are freshly allocated — committed
// plans are retained and concurrently marshaled by PlanFor readers, so
// arena rows must never escape into them.
func (s *shard) buildPlan(e *Engine, j *planJob, i int, epoch uint64, hubE units.Joule) {
	n := int(s.batch.Cols.Len[i])
	if n == 0 {
		j.err = fmt.Errorf("out of range at %.2fm", float64(j.distance))
		return
	}
	if err := s.batch.Errs[i]; err != nil {
		j.err = err
		return
	}
	p := Plan{
		Epoch:     epoch,
		Ratio:     float64(hubE) / float64(j.energy),
		Distance:  float64(j.distance),
		Fractions: make([]float64, n),
		Blocks:    make([]int, n),
		Bits:      s.batch.Bits[i],
	}
	copy(p.Fractions, s.batch.PRow(i))
	copy(p.Blocks, s.batch.BlockCountsRow(i, e.cfg.Window))
	mask := 0
	for _, l := range s.batch.Cols.Row(i) {
		mask |= 1 << uint(l.Mode)
	}
	p.Modes = modeNames[mask]
	j.plan = p
}

// latRing is a bounded ring of per-epoch wall-clock latencies (ns) the
// /v1/stats percentiles are computed over. Strictly observational —
// never touches EpochResult or the digest. Guarded by the engine's
// latMu.
type latRing struct {
	buf         []float64
	idx         int
	count       int
	first, last float64
}

// latRingCap bounds both stage-latency rings.
const latRingCap = 256

// observe records one epoch's latency.
func (r *latRing) observe(ns float64) {
	if r.buf == nil {
		r.buf = make([]float64, 0, latRingCap)
	}
	if len(r.buf) < latRingCap {
		r.buf = append(r.buf, ns)
	} else {
		r.buf[r.idx] = ns
	}
	r.idx = (r.idx + 1) % latRingCap
	if r.count == 0 {
		r.first = ns
	}
	r.count++
	r.last = ns
}
