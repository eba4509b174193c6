// Journal capture. A journal is a stream of CRC-framed JSONL records
// (see segment.go): one head record, then admitted operations
// interleaved with epoch boundaries. Operation records are written
// inside the admission queue's critical section, so journal order IS
// admission order; the "drain" marker is written in the same critical
// section that empties the queue, so a reader knows exactly which
// operations each epoch saw. The "epoch" record that follows carries
// the plan digest the live run produced.
//
// One writer, serve.Open, keeps the journal as a directory of segments,
// each headed by a "snap" record, with rotation and compaction; see
// segment.go. One reader, replayJournal in recover.go, reads a segment
// or a capture written before the journal became a directory, a single
// stream headed by a "config" record: Replay, VerifyDir and Open all
// decode the head and re-run the tail through it, demanding every
// recomputed digest match the journal's bit for bit.
//
// Unlike the pre-durability journal, write failures are not silently
// deferred to Close: the first error is sticky, Err surfaces it to
// /healthz and Stats, every subsequently dropped record bumps the
// journal-error counter, and with Config.JournalFailStop the engine
// sheds admissions (503) rather than admit operations it cannot make
// durable.

package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"braidio/internal/obs"
)

// record is the single flat JSONL record shape; T discriminates.
type record struct {
	T string `json:"t"`

	// op fields (t = "reg" | "upd" | "hub")
	ID string  `json:"id,omitempty"`
	E  float64 `json:"e,omitempty"`
	D  float64 `json:"d,omitempty"`

	// epoch fields (t = "drain" | "epoch")
	Epoch   uint64 `json:"epoch,omitempty"`
	Planned int    `json:"planned,omitempty"`
	Clean   int    `json:"clean,omitempty"`
	Members int    `json:"members,omitempty"`
	Digest  string `json:"digest,omitempty"`

	// config header fields (t = "config"): the planner-semantic config,
	// flattened into the record, and the capture's queue bound
	journalConfig
	QueueCap int `json:"queue_cap,omitempty"`

	// snapshot payload (t = "snap"; segment heads only)
	Snap *snapshotRecord `json:"snap,omitempty"`
}

// JournalOptions tune the durability layer; the zero value is a safe
// default (no fsync, 16-epoch snapshots, keep no pre-snapshot segments).
type JournalOptions struct {
	// Sync is the fsync policy; see SyncPolicy.
	Sync SyncPolicy
	// SnapshotEvery is the epoch interval between snapshots (and the
	// segment rotations they trigger); 0 selects 16.
	SnapshotEvery uint64
	// Retain keeps that many pre-snapshot segments past compaction
	// (0 deletes everything older than the newest snapshot).
	Retain int
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 16
	}
	if o.Retain < 0 {
		o.Retain = 0
	}
	return o
}

// Journal captures a session for replay and recovery in a segmented
// directory; Open starts one. Safe for concurrent writers; the engine
// calls it from inside its admission-queue critical section so record
// order matches admission order.
type Journal struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File // the current segment, the fsync target
	err error

	policy SyncPolicy
	rec    *obs.Recorder

	dir    string
	idx    int
	every  uint64
	retain int
}

// fail records the journal's first error; dropped counts every record
// lost to it. Both feed the journal-error counter so a broken journal
// is visible in /metrics long before Close.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	if j.rec != nil {
		j.rec.ServeJournalErrors.Add(1)
	}
}

func (j *Journal) write(r record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(r)
}

func (j *Journal) writeLocked(r record) {
	if j.err != nil {
		// Sticky failure: count the dropped record, keep the first error.
		if j.rec != nil {
			j.rec.ServeJournalErrors.Add(1)
		}
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		j.fail(err)
		return
	}
	if _, err := j.w.Write(frameLine(b)); err != nil {
		j.fail(err)
		return
	}
	if j.policy == SyncAlways {
		j.syncLocked()
	}
}

// syncLocked flushes the buffer and, when file-backed, fsyncs.
func (j *Journal) syncLocked() {
	if j.err != nil {
		return
	}
	if err := j.w.Flush(); err != nil {
		j.fail(err)
		return
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.fail(err)
		}
	}
}

// Err returns the journal's first write/sync error, or nil. A non-nil
// value means records have been dropped: the capture is no longer a
// faithful prefix of the admission stream, /healthz reports it, and a
// fail-stop engine sheds admissions until restarted.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and fsyncs buffered records, closes the segment file
// and returns the first error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncLocked()
	if j.f != nil {
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.f = nil
	}
	return j.err
}

func (j *Journal) op(o op) {
	j.write(record{T: o.wireType(), ID: o.id, E: float64(o.energy), D: float64(o.distance)})
}

func (j *Journal) drain(epoch uint64) {
	j.write(record{T: "drain", Epoch: epoch})
}

func (j *Journal) epoch(res EpochResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(record{
		T: "epoch", Epoch: res.Epoch, Planned: res.Planned,
		Clean: res.Clean, Members: res.Members, Digest: res.Digest,
	})
	if j.policy == SyncEpoch {
		// The epoch boundary is the durability point: the fsync covers
		// this epoch's operations, drain marker, and digest at once.
		j.syncLocked()
	}
}

// wantSnapshot reports whether the epoch boundary just recorded should
// trigger a snapshot + rotation. A journal with no interval never
// rotates.
func (j *Journal) wantSnapshot(epoch uint64) bool {
	return j.every > 0 && epoch%j.every == 0
}

// snapshotRotate seals the current segment, starts the next one with
// snap as its head record, makes it durable, and compacts segments
// older than the new snapshot. The write ordering is the crash-safety
// argument: the old segment is flushed and fsynced first, the new head
// is fsynced before any deletion, so at every instant the directory
// holds at least one intact recovery chain.
func (j *Journal) snapshotRotate(snap *snapshotRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		if j.rec != nil {
			j.rec.ServeJournalErrors.Add(1)
		}
		return
	}
	// Seal the current segment (nil on the very first rotation).
	if j.f != nil {
		j.syncLocked()
		if j.err != nil {
			return
		}
	}
	next := j.idx + 1
	f, err := createSegment(j.dir, next)
	if err != nil {
		j.fail(err)
		return
	}
	old := j.f
	j.f = f
	j.w = bufio.NewWriterSize(f, 1<<16)
	j.idx = next
	j.writeLocked(record{T: "snap", Snap: snap})
	j.syncLocked()
	if j.err != nil {
		return
	}
	if old != nil {
		if err := old.Close(); err != nil {
			j.fail(err)
			return
		}
	}
	if _, err := removeSegmentsBelow(j.dir, next-j.retain); err != nil {
		j.fail(err)
		return
	}
	if j.rec != nil {
		j.rec.ServeSnapshots.Add(1)
		j.rec.ServeRotations.Add(1)
	}
}

// replayMaxLine bounds a single journal line in Replay, guarding memory
// against corrupt or non-journal input. Config-headed journals hold
// small records; a segment whose snapshot head is longer is verified
// through its directory (VerifyDir) instead.
const replayMaxLine = 1 << 20

// Replay reads a captured journal, rebuilds the engine its head
// describes (a config header starts an empty engine, a snapshot head
// restores one), re-admits every operation, re-runs every epoch at the
// journaled boundaries, and verifies each recomputed plan digest
// against the captured one. The contract is replayJournal's: any
// divergence is an error, and only a torn tail is tolerated. Records
// are CRC-verified when framed; bare legacy JSONL lines are accepted
// for pre-CRC captures.
func Replay(r io.Reader) (RecoveryStats, error) {
	return replayWith(r, Config{})
}

// replayWith is Replay with operational overrides (workers, shards),
// which by the determinism contract cannot change a bit.
func replayWith(r io.Reader, operational Config) (RecoveryStats, error) {
	_, st, err := replayJournal(newLineReader(r, replayMaxLine, "journal"), operational, false)
	return st, err
}

// decodeJournalLine validates the CRC frame (when present) and
// unmarshals the record. allowLegacy accepts bare unframed JSON lines —
// single-file Replay keeps old captures readable; segment recovery is
// strict, since every segment record was written framed.
func decodeJournalLine(data []byte, allowLegacy bool) (record, error) {
	payload, framed, err := unframeLine(data)
	if err != nil {
		return record{}, err
	}
	if !framed {
		if !allowLegacy {
			return record{}, fmt.Errorf("unframed record in segmented journal")
		}
		payload = data
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, err
	}
	return rec, nil
}
