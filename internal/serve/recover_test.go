package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// soakOp is one schedule entry for the crash soaks: a deterministic,
// position-indexed operation both the reference run and every recovered
// run apply identically.
type soakOp struct {
	kind string // "reg" | "upd" | "hub"
	id   string
	e, d float64
}

// soakSchedule is the fixed op schedule: 6 registrations, two update
// rounds (alternating past-tolerance and within-tolerance drifts), one
// hub-budget change mid-stream. Kept deliberately small — the byte-
// offset soaks replay it thousands of times — while still exercising
// every record type, the dirty-set predicate, and a pending tail op.
func soakSchedule() []soakOp {
	var ops []soakOp
	for i := 0; i < 6; i++ {
		ops = append(ops, soakOp{"reg", fmt.Sprintf("s%02d", i), 0.5 + 0.1*float64(i), 0.7 + 0.15*float64(i)})
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			n := 3*round + i
			e := 0.5 + 0.1*float64(n)
			if i%2 == 0 {
				e /= 2 // past ratio tolerance
			} else {
				e *= 1.01 // within
			}
			ops = append(ops, soakOp{"upd", fmt.Sprintf("s%02d", n), e, 0.7 + 0.15*float64(n)})
		}
		if round == 0 {
			ops = append(ops, soakOp{"hub", "", 6, 0})
		}
	}
	return ops
}

// soakMembers is the schedule's membership count.
const soakMembers = 6

// soakEpochEvery is the schedule's epoch cadence: a drain after every
// soakEpochEvery admitted ops. 13 ops at cadence 4 means three epochs
// and one op left pending in the queue — the torn-tail soaks cover a
// mid-epoch crash for free.
const soakEpochEvery = 4

func applySoakOpE(e *Engine, o soakOp) error {
	switch o.kind {
	case "reg":
		return e.Register(o.id, units.Joule(o.e), units.Meter(o.d))
	case "upd":
		return e.Update(o.id, units.Joule(o.e), units.Meter(o.d))
	case "hub":
		return e.SetHubEnergy(units.Joule(o.e))
	}
	return fmt.Errorf("unknown soak op kind %q", o.kind)
}

func applySoakOp(t *testing.T, e *Engine, o soakOp) {
	t.Helper()
	if err := applySoakOpE(e, o); err != nil {
		t.Fatalf("apply %v: %v", o, err)
	}
}

// driveSoakE applies ops[from:] with the schedule's epoch boundaries,
// skipping boundaries the engine has already completed (a recovered
// engine resumes mid-schedule with its epoch counter intact).
func driveSoakE(e *Engine, ops []soakOp, from int) error {
	for i := from; i < len(ops); i++ {
		if err := applySoakOpE(e, ops[i]); err != nil {
			return fmt.Errorf("apply %v: %w", ops[i], err)
		}
		if (i+1)%soakEpochEvery == 0 && e.Stats().Epoch < uint64((i+1)/soakEpochEvery) {
			if _, err := e.RunEpoch(); err != nil {
				return fmt.Errorf("epoch after op %d: %w", i, err)
			}
		}
	}
	want := uint64(len(ops) / soakEpochEvery)
	for e.Stats().Epoch < want {
		if _, err := e.RunEpoch(); err != nil {
			return fmt.Errorf("catch-up epoch: %w", err)
		}
	}
	return nil
}

func driveSoak(t *testing.T, e *Engine, ops []soakOp, from int) {
	t.Helper()
	if err := driveSoakE(e, ops, from); err != nil {
		t.Fatal(err)
	}
}

// soakFinalDigestE forces a hub change past every member's tolerance
// and runs one more epoch: the digest covers every member's freshly
// solved plan bits, so equal digests mean bit-equal engine state.
func soakFinalDigestE(e *Engine) (string, error) {
	if err := e.SetHubEnergy(3); err != nil {
		return "", fmt.Errorf("final hub change: %w", err)
	}
	res, err := e.RunEpoch()
	if err != nil {
		return "", fmt.Errorf("final epoch: %w", err)
	}
	if res.Planned != res.Members {
		return "", fmt.Errorf("final epoch planned %d of %d members — digest would not cover full state", res.Planned, res.Members)
	}
	return res.Digest, nil
}

func soakFinalDigest(t *testing.T, e *Engine) string {
	t.Helper()
	d, err := soakFinalDigestE(e)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// soakReference runs the schedule on a journal-less engine and returns
// the final full-coverage digest plus the total epoch count.
func soakReference(t *testing.T) (string, uint64) {
	t.Helper()
	e := NewEngine(testConfig(nil))
	driveSoak(t, e, soakSchedule(), 0)
	epochs := e.Stats().Epoch
	return soakFinalDigest(t, e), epochs + 1
}

// captureSoakDir runs the schedule under a segmented journal and
// returns the directory. snapshotEvery controls rotation cadence;
// retain keeps old segments so torn-head recovery has a fallback.
func captureSoakDir(t *testing.T, snapshotEvery uint64, retain int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "journal.d")
	eng, j, _, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: snapshotEvery, Retain: retain})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSoak(t, eng, soakSchedule(), 0)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return dir
}

// copySoakDir copies every segment of src into a fresh directory under
// base, truncating the newest segment at cut bytes. Safe to call from
// soak worker goroutines (no *testing.T involvement).
func copySoakDir(base, src string, cut int64) (string, error) {
	segs, err := listSegments(src)
	if err != nil {
		return "", err
	}
	dst := filepath.Join(base, fmt.Sprintf("cut-%06d.d", cut))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	for i, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return "", err
		}
		if i == len(segs)-1 && cut < int64(len(data)) {
			data = data[:cut]
		}
		if err := os.WriteFile(segPath(dst, s.idx), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func copyDirTo(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst, err := copySoakDir(t.TempDir(), src, cut)
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// runSoakCuts fans truncation offsets [0, size) at the given stride
// across workers; soakOne returns a failure description or "".
func runSoakCuts(t *testing.T, size, stride int64, soakOne func(cut int64) string) {
	t.Helper()
	var (
		mu       sync.Mutex
		failures []string
	)
	cuts := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cut := range cuts {
				if msg := soakOne(cut); msg != "" {
					mu.Lock()
					failures = append(failures, msg)
					mu.Unlock()
				}
			}
		}()
	}
	for cut := int64(0); cut < size; cut += stride {
		cuts <- cut
	}
	close(cuts)
	wg.Wait()
	for i, f := range failures {
		if i >= 10 {
			t.Errorf("... and %d more failures", len(failures)-10)
			break
		}
		t.Error(f)
	}
}

// TestOpenReopenRoundTrip closes a journaled session cleanly and
// reopens it: membership, plans, hub budget, epoch counter, and the
// admitted-op count must all survive, and the next epochs must be
// digest-identical to an uninterrupted run.
func TestOpenReopenRoundTrip(t *testing.T) {
	refDigest, refEpochs := soakReference(t)
	dir := captureSoakDir(t, 2, 0)

	eng, j, st, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	ops := soakSchedule()
	stats := eng.Stats()
	if stats.Admitted != uint64(len(ops)) {
		t.Fatalf("admitted %d, want %d", stats.Admitted, len(ops))
	}
	if stats.Members != soakMembers {
		t.Fatalf("members %d, want %d", stats.Members, soakMembers)
	}
	if stats.Epoch != uint64(len(ops)/soakEpochEvery) {
		t.Fatalf("epoch %d, want %d", stats.Epoch, len(ops)/soakEpochEvery)
	}
	if st.SnapshotEpoch == 0 {
		t.Fatalf("recovered from genesis snapshot, want a later one: %+v", st)
	}
	if _, ok := eng.PlanFor("s03"); !ok {
		t.Fatal("recovered engine lost s03's plan")
	}
	if got := soakFinalDigest(t, eng); got != refDigest {
		t.Fatalf("final digest %s, want %s", got, refDigest)
	}
	if eng.Stats().Epoch != refEpochs {
		t.Fatalf("final epoch %d, want %d", eng.Stats().Epoch, refEpochs)
	}
}

// TestOpenCompaction checks rotation deletes pre-snapshot segments:
// with Retain 0 the directory never holds more than the active segment
// plus the one being superseded at the instant of rotation.
func TestOpenCompaction(t *testing.T) {
	dir := captureSoakDir(t, 2, 0)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(segs))
	}
	// Retained history: snapshot every epoch rotates three times past
	// genesis, and Retain 2 keeps two pre-snapshot segments around.
	dir2 := captureSoakDir(t, 1, 2)
	segs2, err := listSegments(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs2) != 3 {
		t.Fatalf("retain=2 left %d segments, want 3", len(segs2))
	}
}

// TestRecoveryReplaysOnlyPostSnapshotOps pins the point of snapshots:
// recovery work is the post-snapshot tail, not the whole history.
func TestRecoveryReplaysOnlyPostSnapshotOps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal.d")
	eng, j, _, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ops := soakSchedule()
	driveSoak(t, eng, ops, 0) // three epochs; the snapshot rotated at epoch 2
	// Admit three more ops after the last epoch; they land in the
	// current segment's tail, pending in the queue.
	for _, o := range ops[:3] {
		o.id = "tail-" + o.id
		applySoakOp(t, eng, o)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, j2, st, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	// The snapshot at epoch 2 carries the first two epochs' worth of
	// ops; the tail holds the rest of the schedule, the epoch-3 records,
	// and the three post-epoch admissions.
	if st.SnapshotEpoch != 2 {
		t.Fatalf("snapshot epoch %d, want 2", st.SnapshotEpoch)
	}
	wantTail := (len(ops) - 2*soakEpochEvery) + 3
	if st.Ops != wantTail {
		t.Fatalf("recovery replayed %d ops, want only the %d post-snapshot ones", st.Ops, wantTail)
	}
	if st.Epochs != 1 || st.Matched != 1 {
		t.Fatalf("recovery re-ran %d epochs (%d matched), want 1/1", st.Epochs, st.Matched)
	}
}

// TestRecoveryConfigMerge reopens with different flags: the
// planner-semantic fields must come from the journal (digest
// continuity), the operational ones from the caller.
func TestRecoveryConfigMerge(t *testing.T) {
	dir := captureSoakDir(t, 2, 0)
	caller := testConfig(nil)
	caller.RatioTolerance = 0.5 // wrong on purpose; journal must win
	caller.HubEnergy = 99
	caller.QueueCap = 123 // operational; caller must win
	eng, j, _, err := Open(dir, caller, JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	got := eng.Config()
	if got.RatioTolerance != 0.05 {
		t.Errorf("ratio tolerance %v, want journal's 0.05", got.RatioTolerance)
	}
	if got.QueueCap != 123 {
		t.Errorf("queue cap %d, want caller's 123", got.QueueCap)
	}
	// The hub budget is live state, not config: the snapshot's tracked
	// value (6 after the schedule's hub op) wins over both.
	if st := eng.Stats(); st.HubEnergy != 6 {
		t.Errorf("hub energy %v, want snapshot's 6", st.HubEnergy)
	}
}

// TestVerifyDirCleanAndTorn checks the read-only verifier on a clean
// directory and on one with a torn tail.
func TestVerifyDirCleanAndTorn(t *testing.T) {
	dir := captureSoakDir(t, 2, 0)
	st, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("verify clean: %v", err)
	}
	if st.TornRecords != 0 {
		t.Fatalf("clean dir reported %d torn records", st.TornRecords)
	}
	segs, _ := listSegments(dir)
	newest := segs[len(segs)-1]
	torn := copyDirTo(t, dir, newest.size-3)
	st, err = VerifyDir(torn)
	if err != nil {
		t.Fatalf("verify torn: %v", err)
	}
	if st.TornRecords != 1 {
		t.Fatalf("torn dir reported %d torn records, want 1", st.TornRecords)
	}
}

// TestVerifyDirRejectsMidFileCorruption flips a byte in the middle of
// the newest segment's tail: a corrupt record with valid records after
// it is pre-crash corruption, a hard error — never silently truncated.
func TestVerifyDirRejectsMidFileCorruption(t *testing.T) {
	dir := captureSoakDir(t, 2, 0) // last snapshot at epoch 4: epoch 5's records form the tail
	segs, _ := listSegments(dir)
	newest := segs[len(segs)-1]
	data, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	headEnd := bytes.IndexByte(data, '\n') + 1
	if headEnd <= 0 || headEnd >= len(data)-2 {
		t.Fatalf("segment %s has no tail to corrupt", newest.path)
	}
	data[headEnd+frameLen] ^= 0x01 // first payload byte of the first tail record
	if err := os.WriteFile(newest.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir accepted mid-file corruption")
	} else if !strings.Contains(err.Error(), "corrupt record with valid records after it") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTruncationSoakMultiSegment is the crash soak over a multi-segment
// directory: truncate the newest segment at every byte offset (stride
// in -short mode), recover, drive the rest of the schedule, and demand
// the final full-coverage digest is bit-identical to the uninterrupted
// reference. A truncation inside the newest head must fall back to the
// previous segment (retained history) — recovery never fails.
func TestTruncationSoakMultiSegment(t *testing.T) {
	refDigest, _ := soakReference(t)
	dir := captureSoakDir(t, 2, 100) // retain everything: fallback always exists
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("soak needs >= 2 segments, got %d", len(segs))
	}
	newest := segs[len(segs)-1]
	head, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	headLen := int64(bytes.IndexByte(head, '\n') + 1)

	stride := int64(1)
	if testing.Short() {
		stride = 47
	}
	ops := soakSchedule()
	// The huge SnapshotEvery keeps the continuation from rotating at
	// every even epoch — recovery itself is what is under test.
	opts := JournalOptions{SnapshotEvery: 1 << 40}
	base := t.TempDir()
	runSoakCuts(t, newest.size, stride, func(cut int64) string {
		cdir, err := copySoakDir(base, dir, cut)
		if err != nil {
			return fmt.Sprintf("cut %d: copy: %v", cut, err)
		}
		defer os.RemoveAll(cdir)
		eng, j, st, err := Open(cdir, testConfig(nil), opts)
		if err != nil {
			return fmt.Sprintf("cut %d: recovery failed: %v", cut, err)
		}
		defer j.Close()
		if cut < headLen && st.TornSegments != 1 {
			return fmt.Sprintf("cut %d (inside head): TornSegments = %d, want 1", cut, st.TornSegments)
		}
		admitted := int(eng.Stats().Admitted)
		if admitted > len(ops) {
			return fmt.Sprintf("cut %d: admitted %d > schedule length %d", cut, admitted, len(ops))
		}
		if err := driveSoakE(eng, ops, admitted); err != nil {
			return fmt.Sprintf("cut %d: continuation: %v", cut, err)
		}
		got, err := soakFinalDigestE(eng)
		if err != nil {
			return fmt.Sprintf("cut %d: %v", cut, err)
		}
		if got != refDigest {
			return fmt.Sprintf("cut %d: final digest %s, want %s (recovered from op %d)", cut, got, refDigest, admitted)
		}
		return ""
	})
}

// TestTruncationSoakSingleSegment soaks a session captured in one
// genesis segment: every byte offset inside the head snapshot must be a
// hard error (no older segment to fall back to — pre-snapshot
// corruption), and every offset past it must recover to digest parity.
func TestTruncationSoakSingleSegment(t *testing.T) {
	refDigest, _ := soakReference(t)
	dir := captureSoakDir(t, 1<<40, 0) // no rotation: everything in seg-0000
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want a single genesis segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	headLen := int64(bytes.IndexByte(data, '\n') + 1)

	stride := int64(1)
	if testing.Short() {
		stride = 31
	}
	ops := soakSchedule()
	opts := JournalOptions{SnapshotEvery: 1 << 40}
	base := t.TempDir()
	runSoakCuts(t, segs[0].size, stride, func(cut int64) string {
		cdir, err := copySoakDir(base, dir, cut)
		if err != nil {
			return fmt.Sprintf("cut %d: copy: %v", cut, err)
		}
		defer os.RemoveAll(cdir)
		eng, j, _, err := Open(cdir, testConfig(nil), opts)
		if cut < headLen {
			if err == nil {
				j.Close()
				return fmt.Sprintf("cut %d (inside the only snapshot): recovery succeeded, want hard error", cut)
			}
			return ""
		}
		if err != nil {
			return fmt.Sprintf("cut %d: recovery failed: %v", cut, err)
		}
		defer j.Close()
		if err := driveSoakE(eng, ops, int(eng.Stats().Admitted)); err != nil {
			return fmt.Sprintf("cut %d: continuation: %v", cut, err)
		}
		got, err := soakFinalDigestE(eng)
		if err != nil {
			return fmt.Sprintf("cut %d: %v", cut, err)
		}
		if got != refDigest {
			return fmt.Sprintf("cut %d: final digest %s, want %s", cut, got, refDigest)
		}
		return ""
	})
}

// TestRecoveryCounters checks the durability path is visible in obs:
// snapshots, rotations, and recoveries all count.
func TestRecoveryCounters(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(rec)
	dir := filepath.Join(t.TempDir(), "journal.d")
	eng, j, _, err := Open(dir, cfg, JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	driveSoak(t, eng, soakSchedule(), 0)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := rec.ServeSnapshots.Load(); got == 0 {
		t.Error("ServeSnapshots stayed 0")
	}
	if got := rec.ServeRotations.Load(); got == 0 {
		t.Error("ServeRotations stayed 0")
	}
	if got := rec.ServeRecoveries.Load(); got != 0 {
		t.Errorf("ServeRecoveries = %d before any recovery", got)
	}
	_, j2, _, err := Open(dir, cfg, JournalOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if got := rec.ServeRecoveries.Load(); got != 1 {
		t.Errorf("ServeRecoveries = %d after recovery, want 1", got)
	}
}

// TestRecoveryUnpatchedSnapshotHead covers the crash window of the
// streamed snapshot head: a rotation writes the head behind a
// "00000000 " placeholder and patches its CRC in at offset 0 before
// the fsync, so a crash in between leaves a newest head that is
// CRC-bad, and nothing after it. Open and VerifyDir must fall back one
// segment and re-run the uninterrupted run's digests. A head that
// cannot be encoded, here for a NaN planted in a committed plan, must
// fail the journal as json.Marshal's error did (sticky Err, counted),
// and the segment it leaves must recover the same way.
func TestRecoveryUnpatchedSnapshotHead(t *testing.T) {
	ops := soakSchedule()
	cut := 2 * soakEpochEvery // two epochs; SnapshotEvery 2 rotates at the second
	ref := NewEngine(testConfig(nil))
	var want []string
	for i, o := range ops[:cut] {
		applySoakOp(t, ref, o)
		if (i+1)%soakEpochEvery == 0 {
			want = append(want, mustEpoch(t, ref).Digest)
		}
	}
	refDigest, _ := soakReference(t)
	opts := JournalOptions{SnapshotEvery: 2, Retain: 1}

	// recovers checks that dir recovers from its older segment, through
	// VerifyDir and Open, and that the reopened engine finishes the
	// schedule with the uninterrupted run's final digest.
	recovers := func(label, dir string) {
		t.Helper()
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 2 {
			t.Fatalf("%s: %d segments, want 2", label, len(segs))
		}
		check := func(how string, st RecoveryStats) {
			t.Helper()
			if st.TornSegments != 1 || st.BaseSegment != segs[0].idx {
				t.Errorf("%s: %s recovered from segment %d with TornSegments %d, want segment %d and 1",
					label, how, st.BaseSegment, st.TornSegments, segs[0].idx)
			}
			if fmt.Sprint(st.Digests) != fmt.Sprint(want) || st.Matched != len(want) {
				t.Errorf("%s: %s re-ran digests %v (%d matched), want %v", label, how, st.Digests, st.Matched, want)
			}
		}
		st, err := VerifyDir(dir)
		if err != nil {
			t.Fatalf("%s: verify: %v", label, err)
		}
		check("VerifyDir", st)
		eng, j, st, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 1 << 40})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer j.Close()
		check("Open", st)
		driveSoak(t, eng, ops, int(eng.Stats().Admitted))
		if got := soakFinalDigest(t, eng); got != refDigest {
			t.Errorf("%s: final digest %s, want %s", label, got, refDigest)
		}
	}

	// A head whose CRC was never patched in.
	dir := filepath.Join(t.TempDir(), "journal.d")
	eng, j, _, err := Open(dir, testConfig(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSoak(t, eng, ops[:cut], 0)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := segs[len(segs)-1].path
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(data, '\n') != len(data)-1 || bytes.HasPrefix(data, []byte(framePlaceholder)) {
		t.Fatalf("newest segment is not one patched head: %.40q", data)
	}
	copy(data, framePlaceholder[:frameLen-1])
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recovers("unpatched head", dir)

	// A head that fails to encode.
	rec := &obs.Recorder{}
	dir = filepath.Join(t.TempDir(), "journal.d")
	eng, j, _, err = Open(dir, testConfig(rec), opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSoak(t, eng, ops[:soakEpochEvery], 0)
	// s03 is planned in the first epoch and not re-planned in the
	// second, so the snapshot after it carries the planted NaN.
	s := eng.shardFor("s03")
	s.mu.Lock()
	s.members["s03"].plan.Bits = math.NaN()
	s.mu.Unlock()
	for _, o := range ops[soakEpochEvery:cut] {
		applySoakOp(t, eng, o)
	}
	mustEpoch(t, eng)
	var unsupported *json.UnsupportedValueError
	if err := j.Err(); !errors.As(err, &unsupported) {
		t.Fatalf("journal error %v, want json's unsupported value error", err)
	}
	if got := rec.ServeJournalErrors.Load(); got != 1 {
		t.Fatalf("ServeJournalErrors = %d, want 1", got)
	}
	if err := eng.Update("s00", 0.3, 0.7); err != nil {
		t.Fatal(err)
	}
	if got := rec.ServeJournalErrors.Load(); got != 2 {
		t.Fatalf("ServeJournalErrors = %d after a dropped record, want 2", got)
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close after a failed snapshot returned nil")
	}
	recovers("NaN in a plan", dir)
}
