// Snapshot records: the full engine state — membership in registration
// order with every member's committed plan, the hub budget, the epoch
// counter, the cumulative admitted-operation count, and the pending
// admission queue — serialized as one journal record. Every segment
// begins with a snapshot, so recovery restores the newest snapshot and
// replays only that segment's tail instead of the whole history from
// genesis.
//
// Exactness contract: every float crosses JSON via Go's shortest
// round-trippable encoding, so a restored engine holds bit-identical
// energies, distances, ratios, and plan fractions — which is what lets
// recovery re-verify tail epoch digests bit for bit and resume with
// digests indistinguishable from an uninterrupted run.

package serve

import (
	"fmt"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// journalConfig is the planner-semantic slice of Config carried by
// snapshots and, flattened, by config headers: the fields that must
// match the capture for digests to reproduce. Operational fields
// (Workers, QueueCap, Rec, JournalFailStop) are deliberately absent —
// they never affect plan bits and are taken from the restarting
// daemon's own flags.
type journalConfig struct {
	RatioTol float64 `json:"ratio_tol,omitempty"`
	DistTol  float64 `json:"dist_tol,omitempty"`
	Window   int     `json:"window,omitempty"`
	HubJ     float64 `json:"hub_j,omitempty"`
}

// journalConfigOf extracts the planner-semantic fields of cfg.
func journalConfigOf(cfg Config) journalConfig {
	return journalConfig{
		RatioTol: cfg.RatioTolerance, DistTol: cfg.DistanceTolerance,
		Window: cfg.Window, HubJ: float64(cfg.HubEnergy),
	}
}

// mergeConfig overlays the journal's planner-semantic fields onto the
// caller's operational ones: tolerances, window and budget come from
// the capture (digest continuity), worker count and queue bound from
// the restarting process.
func mergeConfig(caller Config, jc journalConfig) Config {
	caller.RatioTolerance = jc.RatioTol
	caller.DistanceTolerance = jc.DistTol
	caller.Window = jc.Window
	caller.HubEnergy = units.Joule(jc.HubJ)
	return caller
}

// memberRecord is one member's snapshot state: inputs, dirty flag, and
// the committed plan (nil when no epoch has planned it yet).
type memberRecord struct {
	ID    string  `json:"id"`
	E     float64 `json:"e"`
	D     float64 `json:"d"`
	Dirty bool    `json:"dirty,omitempty"`
	Plan  *Plan   `json:"plan,omitempty"`
}

// queuedOp is one pending admission captured inside a snapshot: an
// operation admitted (and journaled) after the last drain but not yet
// applied. The snapshot carries the queue so rotation can delete the
// old segment — including those ops' records — without losing them.
type queuedOp struct {
	T  string  `json:"t"`
	ID string  `json:"id,omitempty"`
	E  float64 `json:"e,omitempty"`
	D  float64 `json:"d,omitempty"`
}

// snapshotRecord is the full durable engine state at an epoch boundary.
type snapshotRecord struct {
	// Epoch is the last completed epoch; recovery resumes the counter
	// here and the first replayed drain must carry Epoch+1.
	Epoch uint64 `json:"epoch"`
	// Ops is the cumulative admitted-operation count (including the
	// pending Queue), letting operators and soak tests locate a
	// recovered engine's exact position in an operation schedule.
	Ops uint64 `json:"ops"`
	// HubJ is the current hub-side budget (tracks SetHubEnergy, unlike
	// the config's initial value).
	HubJ float64 `json:"hub_j"`
	// Cfg is the planner-semantic configuration; see journalConfig.
	Cfg journalConfig `json:"cfg"`
	// Members is the membership in registration order — the order the
	// digest commits in, so it must be preserved exactly.
	Members []memberRecord `json:"members,omitempty"`
	// Queue is the pending admission queue in admission order.
	Queue []queuedOp `json:"queue,omitempty"`
}

// wireType maps an op kind to its journal record type tag.
func (o op) wireType() string {
	switch o.kind {
	case opRegister:
		return "reg"
	case opUpdate:
		return "upd"
	default:
		return "hub"
	}
}

// opFromWire reverses wireType; ok is false for unknown tags.
func opFromWire(t, id string, e, d float64) (op, bool) {
	o := op{id: id, energy: units.Joule(e), distance: units.Meter(d)}
	switch t {
	case "reg":
		o.kind = opRegister
	case "upd":
		o.kind = opUpdate
	case "hub":
		o.kind = opHub
	default:
		return op{}, false
	}
	return o, true
}

// writeSnapshot streams the engine's snapshot record, as the payload of
// a "snap" journal record, into h: the bytes json.Marshal writes for
// record{T: "snap", Snap: s}, where s is the engine's state as a
// snapshotRecord, without building s. The caller holds e.queueMu
// (freezing the pending queue and the admitted counter against
// concurrent admissions — and, because journal writes happen inside
// that same critical section, freezing the journal stream at exactly
// this point), e.mu.RLock and every shard's read lock (taken in index
// order, after e.mu — the one place both levels nest). The membership
// is walked in the global registration order, so snapshot bytes are
// identical at any shard count. Read locks only: concurrent /v1/plan
// reads stay unblocked.
func (e *Engine) writeSnapshot(h *headWriter) {
	cfg := journalConfigOf(e.cfg)
	h.raw(`{"t":"snap","snap":`)
	h.snapOpen(e.epoch, e.admitted, float64(e.hubEnergy), &cfg)
	for i, m := range e.order {
		h.listItem(i, `,"members":[`)
		var plan *Plan
		if m.hasPlan {
			plan = &m.plan
		}
		h.member(m.id, float64(m.energy), float64(m.distance), m.dirty, plan)
		h.spill()
	}
	h.listEnd(len(e.order))
	for i := range e.queue {
		o := &e.queue[i]
		h.listItem(i, `,"queue":[`)
		h.queued(o.wireType(), o.id, float64(o.energy), float64(o.distance))
		h.spill()
	}
	h.listEnd(len(e.queue))
	h.raw("}}")
	h.flush()
}

// restoreSnapshot loads a snapshot into a freshly built engine (no
// traffic yet): membership in order, plans, hub budget, epoch counter,
// admitted count, and the pending queue. It validates structural
// invariants so a corrupted-but-CRC-valid snapshot cannot seed an
// engine that panics later.
func (e *Engine) restoreSnapshot(s *snapshotRecord) error {
	if s.HubJ <= 0 {
		return fmt.Errorf("serve: snapshot has non-positive hub energy %v", s.HubJ)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch = s.Epoch
	e.hubEnergy = units.Joule(s.HubJ)
	for _, mr := range s.Members {
		if mr.ID == "" {
			return fmt.Errorf("serve: snapshot member with empty id")
		}
		if mr.E <= 0 || mr.D <= 0 {
			return fmt.Errorf("serve: snapshot member %q has non-positive energy %v or distance %v", mr.ID, mr.E, mr.D)
		}
		sh := e.shardFor(mr.ID)
		if _, dup := sh.members[mr.ID]; dup {
			return fmt.Errorf("serve: snapshot member %q duplicated", mr.ID)
		}
		// Seq numbers are reassigned in snapshot (registration) order, so
		// the cross-shard digest merge reproduces the capture's order.
		m := &member{id: mr.ID, seq: e.nextSeq, live: true, energy: units.Joule(mr.E), distance: units.Meter(mr.D)}
		e.nextSeq++
		if mr.Plan != nil {
			m.plan = *mr.Plan
			m.hasPlan = true
		}
		if mr.Dirty {
			// Seed the shard's dirty list: the first epoch plans it.
			sh.markDirty(m, obs.DirtyRestore)
		}
		sh.members[m.id] = m
		sh.order = append(sh.order, m)
		e.order = append(e.order, m)
	}
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	e.admitted = s.Ops
	for i, q := range s.Queue {
		o, ok := opFromWire(q.T, q.ID, q.E, q.D)
		if !ok {
			return fmt.Errorf("serve: snapshot queue entry %d has unknown type %q", i, q.T)
		}
		e.queue = append(e.queue, o)
	}
	return nil
}

// snapshotNow streams a snapshot under the admission lock and the read
// locks writeSnapshot needs, as the head of a new journal segment, with
// a rotate-and-compact. Called from RunEpoch (under epochMu) right
// after the epoch record, so the snapshot state is the just-committed
// epoch plus whatever the queue has gathered since the drain — and
// every op journaled after this point lands in the new segment, keeping
// journal order equal to admission order across the rotation boundary.
// j.mu is the innermost lock: queueMu, then e.mu and the shard locks,
// then the journal's.
func (e *Engine) snapshotNow(j *Journal) {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	e.mu.RLock()
	for _, s := range e.shards {
		s.mu.RLock()
	}
	j.snapshotRotate(e.writeSnapshot)
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.RUnlock()
	}
	e.mu.RUnlock()
}
