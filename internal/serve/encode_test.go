// Differential tests for the journal's appenders: every record they
// encode, and every streamed snapshot head, must be byte for byte what
// encoding/json writes for the same value. buildSnapshot and frameLine
// are the reference: the snapshot as a record value and the framing as
// a function of the marshalled payload, both written the way the
// journal wrote them before it encoded without reflection.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"braidio/internal/units"
)

// buildSnapshot assembles the engine's snapshot record. The caller must
// hold e.queueMu; committed state is read under e.mu.RLock plus every
// shard's read lock, in the order writeSnapshot's caller takes them.
func (e *Engine) buildSnapshot() *snapshotRecord {
	e.mu.RLock()
	for _, s := range e.shards {
		s.mu.RLock()
	}
	snap := &snapshotRecord{
		Epoch: e.epoch,
		Ops:   e.admitted,
		HubJ:  float64(e.hubEnergy),
		Cfg:   journalConfigOf(e.cfg),
	}
	if n := len(e.order); n > 0 {
		snap.Members = make([]memberRecord, 0, n)
	}
	for _, m := range e.order {
		mr := memberRecord{ID: m.id, E: float64(m.energy), D: float64(m.distance), Dirty: m.dirty}
		if m.hasPlan {
			p := m.plan
			mr.Plan = &p
		}
		snap.Members = append(snap.Members, mr)
	}
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.RUnlock()
	}
	e.mu.RUnlock()
	if n := e.queue.n; n > 0 {
		snap.Queue = make([]queuedOp, 0, n)
	}
	e.queue.each(func(o *op) {
		snap.Queue = append(snap.Queue, queuedOp{T: o.wireType(), ID: o.id, E: float64(o.energy), D: float64(o.distance)})
	})
	return snap
}

// frameLine wraps one marshalled JSON record in the CRC frame,
// returning the full journal line including the trailing newline.
func frameLine(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+frameLen+1)
	out = appendCRCHex(out, crc32.Checksum(payload, crcTable))
	out = append(out, ' ')
	out = append(out, payload...)
	return append(out, '\n')
}

// encodeRecord runs r through the appender.
func encodeRecord(r *record) ([]byte, error) {
	var w encoder
	w.record(r)
	return w.b, w.err
}

// sameAsMarshal fails the test unless the appender writes r as
// json.Marshal does, bytes or error.
func sameAsMarshal(t *testing.T, label string, r *record) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := encodeRecord(r)
	switch {
	case (werr != nil) != (gerr != nil):
		t.Errorf("%s: appender error %v, encoding/json error %v", label, gerr, werr)
	case werr != nil:
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: appender error %q, encoding/json error %q", label, gerr, werr)
		}
	case !bytes.Equal(got, want):
		t.Errorf("%s: appender wrote\n%s\nencoding/json\n%s", label, got, want)
	}
}

// TestEncoderMatchesMarshal holds the appender to json.Marshal on ids
// encoding/json escapes and on floats at the edges of its format, in
// every record type and every field kind a record carries.
func TestEncoderMatchesMarshal(t *testing.T) {
	ids := []string{
		"m0", "", "<", ">", "&", `"`, `\`, "\x01", "\x1f", "\t\n\r\b\f", "a\x7fb",
		"\u2028", "\u2029", "\xff", "bad\xc3(utf8", "é", "日本", "\U0001F600", "x<y&z>\"w\"",
	}
	floats := []float64{
		0, 1, -1, 0.1, 1.0 / 3, 123456789, 2.8e7,
		1e-6, 9.99e-7, 1e-7, 1.5e-7, 1e-300, 1e20, 1e21, 1.5e21, 1e300,
		5e-324, 1e-310, 2.2250738585072014e-308,
		math.Copysign(0, -1), -1e-6, -9.99e-7, -1e21,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, id := range ids {
		for _, f := range floats {
			label := fmt.Sprintf("id %q, float %v", id, f)
			sameAsMarshal(t, label+" reg", &record{T: "reg", ID: id, E: f, D: -f})
			sameAsMarshal(t, label+" epoch", &record{T: "epoch", Epoch: math.MaxUint64, Planned: -3, Clean: 1, Members: 4, Digest: id})
			sameAsMarshal(t, label+" config", &record{T: id, journalConfig: journalConfig{RatioTol: f, DistTol: -f, Window: -64, HubJ: f}, QueueCap: 4096})
			sameAsMarshal(t, label+" snap", &record{T: "snap", Snap: &snapshotRecord{
				Epoch: 7, Ops: 9, HubJ: f, Cfg: journalConfig{DistTol: f},
				Members: []memberRecord{
					{ID: id, E: f, D: f, Dirty: true, Plan: &Plan{
						Epoch: 3, Ratio: f, Distance: -f, Modes: []string{id, "active"},
						Fractions: []float64{f, 0.5}, Blocks: []int{-1, 0, 64}, Bits: f,
					}},
					{ID: id, Plan: &Plan{Modes: []string{}, Fractions: []float64{}, Blocks: []int{}}},
					{ID: id, Plan: &Plan{}},
				},
				Queue: []queuedOp{{T: "upd", ID: id, E: f, D: f}, {T: "hub", E: f}},
			}})
		}
	}
	sameAsMarshal(t, "empty snapshot", &record{T: "snap", Snap: &snapshotRecord{}})
	sameAsMarshal(t, "bare record", &record{})
}

// streamHead runs writeSnapshot into h under the locks snapshotNow
// takes.
func streamHead(e *Engine, h *headWriter) {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.shards {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	e.writeSnapshot(h)
}

// streamedHead streams e's snapshot head into a buffer, returning the
// payload and the CRC accumulated chunk by chunk.
func streamedHead(e *Engine) ([]byte, uint32, error) {
	var buf bytes.Buffer
	h := headWriter{w: &buf}
	streamHead(e, &h)
	return buf.Bytes(), h.crc, h.err
}

// referenceHead is the snapshot head line as json.Marshal and frameLine
// write it.
func referenceHead(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.queueMu.Lock()
	snap := e.buildSnapshot()
	e.queueMu.Unlock()
	payload, err := json.Marshal(record{T: "snap", Snap: snap})
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return frameLine(payload)
}

// checkHead holds e's streamed snapshot head, and the head snapshotNow
// writes as a new segment of dir, to the reference.
func checkHead(t *testing.T, label string, e *Engine, j *Journal, dir string) {
	t.Helper()
	want := referenceHead(t, e)
	payload, crc, err := streamedHead(e)
	if err != nil {
		t.Fatalf("%s: stream: %v", label, err)
	}
	if got := frameLine(payload); !bytes.Equal(got, want) {
		t.Errorf("%s: streamed head (%d bytes) differs from encoding/json's (%d bytes)", label, len(got), len(want))
	}
	if want := crc32.Checksum(payload, crcTable); crc != want {
		t.Errorf("%s: streamed CRC %08x, payload's %08x", label, crc, want)
	}
	e.snapshotNow(j)
	if err := j.Err(); err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s: segment head (%d bytes) differs from encoding/json's (%d bytes)", label, len(data), len(want))
	}
}

// TestStreamedHeadMatchesMarshal streams the snapshot head on every
// cell of the shard × worker grid after driveSchedule, with a pending
// queue of every op kind, and on the engine Open restores from the
// pr7_journal_dir fixture: the bytes, and the segment head snapshotNow
// writes, must equal json.Marshal's record framed by frameLine.
func TestStreamedHeadMatchesMarshal(t *testing.T) {
	for _, g := range shardGrid {
		label := fmt.Sprintf("shards=%d/workers=%d", g.shards, g.workers)
		cfg := testConfig(nil)
		cfg.Shards, cfg.Workers = g.shards, g.workers
		dir := t.TempDir()
		e, j, _, err := Open(dir, cfg, JournalOptions{SnapshotEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		driveSchedule(t, e)
		for _, err := range []error{e.Update("m1", 0.25, 0.75), e.Register("new<&>", 0.5, 1.25), e.SetHubEnergy(7)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		checkHead(t, label, e, j, dir)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	dir := copyDirTo(t, filepath.Join("testdata", "pr7_journal_dir"), math.MaxInt64)
	e, j, st, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st.SnapshotMembers != 200 {
		t.Fatalf("pr7_journal_dir restored %d members, want 200", st.SnapshotMembers)
	}
	// Open's own head is the restored engine's snapshot.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceHead(t, e); !bytes.Equal(data, want) {
		t.Errorf("pr7_journal_dir: Open's head (%d bytes) differs from encoding/json's (%d bytes)", len(data), len(want))
	}
	checkHead(t, "pr7_journal_dir", e, j, dir)
}

// TestSnapshotHeadSpansChunks streams a head several chunks long and
// checks the chunked writes and the CRC folded across them against one
// json.Marshal of the whole record.
func TestSnapshotHeadSpansChunks(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Shards = 4
	e := NewEngine(cfg)
	const n = 2_000
	for i := 0; i < n; i++ {
		if err := e.Register(fmt.Sprintf("m%d", i), units.Joule(0.4+0.01*float64(i%40)), units.Meter(0.5+0.015*float64(i%200))); err != nil {
			t.Fatal(err)
		}
	}
	mustEpoch(t, e)
	var writes []int
	var buf bytes.Buffer
	h := headWriter{w: writerFunc(func(p []byte) (int, error) {
		writes = append(writes, len(p))
		return buf.Write(p)
	})}
	streamHead(e, &h)
	if h.err != nil {
		t.Fatal(h.err)
	}
	if want := referenceHead(t, e); !bytes.Equal(frameLine(buf.Bytes()), want) {
		t.Fatalf("chunked head differs from encoding/json's")
	}
	// Every write but the last is one chunk and the member record that
	// crossed its end; the last is what remained.
	for k, n := range writes {
		if n > headChunk+1024 || (k < len(writes)-1 && n < headChunk) || len(writes) < 3 {
			t.Fatalf("%d bytes in writes of %v, want chunks of %d", buf.Len(), writes, headChunk)
		}
	}
	if h.crc != crc32.Checksum(buf.Bytes(), crcTable) {
		t.Fatalf("chunked CRC %08x, payload's %08x", h.crc, crc32.Checksum(buf.Bytes(), crcTable))
	}

	// A failed write stops the stream and is its error.
	broken := errors.New("disk gone")
	h = headWriter{w: errWriter{err: broken}}
	streamHead(e, &h)
	if !errors.Is(h.err, broken) {
		t.Fatalf("stream error %v, want %v", h.err, broken)
	}
	if cap(h.b) > 2*headChunk {
		t.Fatalf("failed stream kept a %d-byte buffer", cap(h.b))
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
