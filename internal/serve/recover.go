// The journal reader and startup recovery. replayJournal is the one
// reader: Replay, VerifyDir and Open all decode a journal's head and
// replay its tail through it, so what counts as a valid journal is
// decided in one place. Recovery restores the newest intact snapshot,
// replays the segment tail re-verifying every epoch digest bit for bit,
// truncates a crash-torn tail, and hands back a ready engine with a
// fresh snapshot-headed segment attached.
//
// Recovery state machine:
//
//	scan segments ──► pick base: the newest segment; if replayJournal
//	      │            finds its head bad (errBadHead), fall back exactly
//	      │            one segment — rotation fsyncs a head before
//	      │            deleting anything older, so a crash can tear at
//	      │            most the newest; anything else is bit rot and a
//	      │            hard error
//	      ▼
//	restore snapshot ─► membership + plans + hub budget + epoch counter
//	      ▼              + pending queue + admitted-op count
//	replay tail ──────► re-admit ops in journal order; at each drain
//	      │             (numbered next, previous epoch record present),
//	      │             re-run the epoch and demand the journaled digest
//	      │             matches the recomputed one bit for bit
//	      ▼
//	torn tail ────────► first partial/corrupt record with nothing
//	      │             readable after it: truncate (count records and
//	      │             bytes); a corrupt record with valid records
//	      │             after it is pre-crash corruption — hard error
//	      ▼
//	rotate ───────────► write a fresh snapshot of the recovered state as
//	                    the head of a new segment, compact older ones

package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// RecoveryStats reports what the journal reader found and did: for
// Replay, the stream's counts; for VerifyDir and Open, also which
// segment recovery restored from.
type RecoveryStats struct {
	// Segments is how many segment files the directory held at startup;
	// BaseSegment is the index recovery restored from.
	Segments    int `json:"segments"`
	BaseSegment int `json:"base_segment"`
	// SnapshotEpoch and SnapshotMembers describe the restored snapshot.
	SnapshotEpoch   uint64 `json:"snapshot_epoch"`
	SnapshotMembers int    `json:"snapshot_members"`
	// Ops counts the operations replayed after the head — recovery work
	// is proportional to this, not to history length.
	Ops int `json:"ops"`
	// Epochs counts drains re-run; Matched counts digests verified
	// bit-for-bit against journaled epoch records (Epochs can exceed
	// Matched by one when the crash cut the final epoch record).
	Epochs  int `json:"epochs"`
	Matched int `json:"matched"`
	// TornRecords and TornBytes quantify the tolerated torn tail;
	// TornSegments is 1 when the newest segment's head itself was torn
	// (crash mid-rotation) and recovery fell back to the previous one.
	TornRecords  int   `json:"torn_records"`
	TornBytes    int64 `json:"torn_bytes"`
	TornSegments int   `json:"torn_segments"`
	// Resumed is the epoch counter after recovery; the next epoch will
	// be Resumed+1, exactly as if the daemon had never died.
	Resumed uint64 `json:"resumed_epoch"`
	// Digests are the digests of the epochs re-run during tail replay,
	// in order — the continuity proof soak tests compare against an
	// uninterrupted reference run.
	Digests []string `json:"-"`
}

// errNoSegments distinguishes "empty directory, start fresh" from a
// recovery failure.
var errNoSegments = errors.New("serve: journal directory has no segments")

// maxWindow bounds the block-schedule window (the default is 64): a
// journal head that carries more is rejected, and Config caps Window at
// it. Block expansion converts window-scaled fractions to int, and near
// math.MaxInt that conversion overflows and its fix-up loop runs ~2^63
// times; braidio-serve's -window flag enforces the same bound.
const maxWindow = 1 << 20

// errBadHead marks a head defect — missing, torn, CRC-bad, unreadable,
// or the wrong kind of record — as opposed to a bad tail. Recovery
// falls back one segment on it, and on nothing else.
var errBadHead = errors.New("bad journal head")

// replayJournal is the journal reader. It decodes the head — a config
// header starts an empty engine, a snapshot restores one — and replays
// the tail: it re-admits every operation in journal order, re-runs each
// drained epoch and demands the journaled digest match the recomputed
// one bit for bit. cfg supplies the operational fields; the planner
// fields come from the head. segment demands what every segment holds,
// a snapshot head and framed lines; otherwise a config header and bare
// legacy lines are accepted too.
//
// The contract, the same for every caller:
//   - a bad record with nothing readable after it is a torn tail,
//     counted in TornRecords/TornBytes; one with valid records after it
//     is corruption and an error;
//   - a drain must carry the next epoch number, and must not arrive
//     while the previous epoch's record is missing: RunEpoch writes
//     epoch N before drain N+1, so only the final epoch record may be
//     absent (cut off by a crash);
//   - an epoch record must follow a drain and match its digest, planned
//     count and membership.
func replayJournal(lr *lineReader, cfg Config, segment bool) (*Engine, RecoveryStats, error) {
	var st RecoveryStats
	data, complete, err := lr.read()
	switch {
	case err == io.EOF:
		return nil, st, fmt.Errorf("serve: %s: %w: missing", lr.name, errBadHead)
	case err != nil:
		return nil, st, fmt.Errorf("%w: %w", errBadHead, err)
	case !complete:
		return nil, st, fmt.Errorf("serve: %s: %w: torn", lr.name, errBadHead)
	}
	head, err := decodeJournalLine(data, !segment)
	if err != nil {
		return nil, st, fmt.Errorf("serve: %s: %w: %w", lr.name, errBadHead, err)
	}
	var jc journalConfig
	switch {
	case head.T == "snap" && head.Snap != nil:
		st.SnapshotEpoch, st.SnapshotMembers = head.Snap.Epoch, len(head.Snap.Members)
		jc = head.Snap.Cfg
	case head.T == "config" && !segment:
		// The capture admitted under this bound, so replay never sheds.
		cfg.QueueCap = head.QueueCap
		jc = head.journalConfig
	default:
		return nil, st, fmt.Errorf("serve: %s: %w: record %q", lr.name, errBadHead, head.T)
	}
	if jc.Window > maxWindow {
		return nil, st, lr.errorf("window %d exceeds %d slots", jc.Window, maxWindow)
	}
	eng := NewEngine(mergeConfig(cfg, jc))
	if head.T == "snap" {
		if err := eng.restoreSnapshot(head.Snap); err != nil {
			return nil, st, lr.errorf("%w", err)
		}
	}

	var pending *EpochResult
	for {
		data, _, err := lr.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, st, err
		}
		if len(data) == 0 {
			continue
		}
		rec, err := decodeJournalLine(data, !segment)
		if err != nil {
			bad := lr.errorf("corrupt record with valid records after it: %w", err)
			if _, _, nerr := lr.read(); nerr == io.EOF {
				st.TornRecords++
				st.TornBytes += lr.next - lr.off
				break
			}
			return nil, st, bad
		}
		switch rec.T {
		case "drain":
			if pending != nil {
				return nil, st, lr.errorf("drain %d with epoch %d's record missing", rec.Epoch, pending.Epoch)
			}
			if want := eng.Stats().Epoch + 1; rec.Epoch != want {
				return nil, st, lr.errorf("drain epoch %d, want %d", rec.Epoch, want)
			}
			got, _ := eng.RunEpoch() // solve errors are part of the digest
			pending = &got
			st.Epochs++
			st.Digests = append(st.Digests, got.Digest)
		case "epoch":
			switch {
			case pending == nil:
				return nil, st, lr.errorf("epoch record with no preceding drain")
			case pending.Digest != rec.Digest:
				return nil, st, lr.errorf("epoch %d diverged: replay digest %s, journal %s", rec.Epoch, pending.Digest, rec.Digest)
			case pending.Planned != rec.Planned || pending.Members != rec.Members:
				return nil, st, lr.errorf("epoch %d diverged: replay planned %d/%d members, journal %d/%d",
					rec.Epoch, pending.Planned, pending.Members, rec.Planned, rec.Members)
			}
			pending = nil
			st.Matched++
		default:
			o, ok := opFromWire(rec.T, rec.ID, rec.E, rec.D)
			if !ok {
				return nil, st, lr.errorf("unexpected record type %q", rec.T)
			}
			st.Ops++
			if err := eng.admit(o); errors.Is(err, ErrShed) {
				return nil, st, lr.errorf("admission shed during replay — raise the queue cap to at least the capture's: %w", err)
			} else if err != nil {
				return nil, st, lr.errorf("%w", err)
			}
		}
	}
	st.Resumed = eng.Stats().Epoch
	return eng, st, nil
}

// recoverEngine restores an engine from the journal directory. cfg
// supplies the operational fields (Workers, QueueCap, Rec,
// JournalFailStop); planner-semantic fields come from the recovered
// snapshot. Returns errNoSegments when the directory holds no segments.
func recoverEngine(dir string, cfg Config) (*Engine, RecoveryStats, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	if len(segs) == 0 {
		return nil, RecoveryStats{}, errNoSegments
	}
	replaySegment := func(seg segmentInfo) (*Engine, RecoveryStats, error) {
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, RecoveryStats{}, fmt.Errorf("%w: %w", errBadHead, err)
		}
		defer f.Close()
		// Snapshot lines scale with membership (a plan per member), so the
		// cap is generous; it exists only to bound memory on garbage input.
		return replayJournal(newLineReader(f, 1<<30, "segment "+seg.path), cfg, true)
	}

	// The base is the newest segment unless its head is bad. A bad head
	// is a crash mid-rotation and is legal only on the newest segment;
	// rotation's write ordering (head fsynced before deletions)
	// guarantees the previous segment is still whole.
	base := len(segs) - 1
	eng, stats, err := replaySegment(segs[base])
	if errors.Is(err, errBadHead) {
		if base == 0 {
			return nil, stats, fmt.Errorf("serve: no intact snapshot to recover from (pre-snapshot corruption): %w", err)
		}
		headErr := err
		base--
		eng, stats, err = replaySegment(segs[base])
		if errors.Is(err, errBadHead) {
			return nil, stats, fmt.Errorf("serve: newest segment torn (%v) and fallback also unusable (pre-snapshot corruption): %w", headErr, err)
		}
		stats.TornSegments = 1
		stats.TornRecords++
		stats.TornBytes += segs[base+1].size
	}
	stats.Segments = len(segs)
	stats.BaseSegment = segs[base].idx
	return eng, stats, err
}

// VerifyDir replays a journal directory read-only — the directory-mode
// analogue of Replay: restore the newest snapshot, replay the tail,
// verify every epoch digest bit for bit. Nothing is written.
func VerifyDir(dir string) (RecoveryStats, error) {
	_, stats, err := recoverEngine(dir, Config{})
	if errors.Is(err, errNoSegments) {
		return stats, fmt.Errorf("serve: %s: no journal segments to verify", dir)
	}
	if err != nil {
		return stats, err
	}
	return stats, nil
}

// Open opens (creating if needed) a segmented journal directory,
// recovers engine state from the newest snapshot plus the journal tail,
// writes a fresh snapshot of the recovered state as the head of a new
// segment, compacts, and returns the ready engine with the journal
// attached. The returned engine resumes exactly where the previous
// process stopped: same membership, same plans, same epoch counter,
// bit-identical future digests. cfg.Rec receives the durability counters
// (recoveries, snapshots, rotations, torn records, journal errors).
func Open(dir string, cfg Config, opts JournalOptions) (*Engine, *Journal, RecoveryStats, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryStats{}, err
	}
	eng, stats, err := recoverEngine(dir, cfg)
	switch {
	case errors.Is(err, errNoSegments):
		eng = NewEngine(cfg)
	case err != nil:
		return nil, nil, stats, err
	default:
		if cfg.Rec != nil {
			cfg.Rec.ServeRecoveries.Add(1)
			cfg.Rec.ServeTornRecords.Add(uint64(stats.TornRecords))
		}
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	nextAfter := -1 // rotation starts at idx+1, so -1 yields seg-0000
	if len(segs) > 0 {
		nextAfter = segs[len(segs)-1].idx
	}
	j := &Journal{
		policy: opts.Sync, rec: cfg.Rec,
		dir: dir, idx: nextAfter,
		every: opts.SnapshotEvery, retain: opts.Retain,
		ownsFile: true,
	}
	// Seed the new segment with a snapshot of the recovered (or fresh)
	// state; the rotation also compacts everything it supersedes.
	eng.snapshotNow(j)
	if jerr := j.Err(); jerr != nil {
		return nil, nil, stats, fmt.Errorf("serve: starting journal segment: %w", jerr)
	}
	eng.AttachJournal(j)
	return eng, j, stats, nil
}
