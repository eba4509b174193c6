package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"braidio/internal/units"
)

// capture runs drive on an engine that Open journals into a fresh
// directory and returns the journal. The snapshot interval is one no
// test session reaches, so the journal is one segment, headed by the
// empty engine's snapshot.
func capture(t *testing.T, cfg Config, drive func(e *Engine)) []byte {
	t.Helper()
	dir := t.TempDir()
	e, j, _, err := Open(dir, cfg, JournalOptions{SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	drive(e)
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("captured %d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// configJournal starts a journal on w headed by cfg's config record,
// the head of the single-stream captures written before journal
// directories: input for the tests of the reader's config-headed path.
func configJournal(w *bufio.Writer, cfg Config) *Journal {
	j := &Journal{w: w, rec: cfg.Rec}
	j.write(record{T: "config", journalConfig: journalConfigOf(cfg), QueueCap: cfg.QueueCap})
	return j
}

// captureSession captures runSession at a worker count.
func captureSession(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := testConfig(nil)
	cfg.Workers = workers
	return capture(t, cfg, func(e *Engine) { runSession(t, e) })
}

// runSession drives a deterministic multi-epoch session: 24
// registrations, then three rounds of updates, one with a hub change.
func runSession(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 24; i++ {
		if err := e.Register(fmt.Sprintf("dev-%02d", i), units.Joule(0.4+0.07*float64(i)), units.Meter(0.6+0.12*float64(i))); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	mustEpoch(t, e)

	for round := 0; round < 3; round++ {
		for i := round; i < 24; i += 3 {
			// Rotate through drifts: past tolerance, within, past.
			energy := 0.4 + 0.07*float64(i)
			if i%2 == 0 {
				energy /= 2
			} else {
				energy *= 1.01
			}
			if err := e.Update(fmt.Sprintf("dev-%02d", i), units.Joule(energy), units.Meter(0.6+0.12*float64(i))); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		if round == 1 {
			if err := e.SetHubEnergy(6); err != nil {
				t.Fatalf("hub: %v", err)
			}
		}
		mustEpoch(t, e)
	}
}

// TestReplayBitIdentity captures a session and replays it: every epoch
// digest must match the live run's.
func TestReplayBitIdentity(t *testing.T) {
	journal := captureSession(t, 4)
	res, err := Replay(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Epochs != 4 || res.Matched != 4 {
		t.Fatalf("replayed %d epochs, matched %d, want 4/4", res.Epochs, res.Matched)
	}
	if res.Ops != 24+24+1 {
		t.Fatalf("replayed %d ops, want 49", res.Ops)
	}
}

// TestReplayWorkerInvariance captures at one worker count and replays
// what is byte-identical journalling from another — the digests in the
// journal itself must already agree, and replay (at default workers)
// must match both.
func TestReplayWorkerInvariance(t *testing.T) {
	j1 := captureSession(t, 1)
	j8 := captureSession(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Fatal("journals differ across worker counts")
	}
	if _, err := Replay(bytes.NewReader(j1)); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestReplayDetectsTampering flips one digest nibble — re-framing the
// line with a freshly computed CRC, so the checksum passes and the
// semantic digest comparison is what must catch it — and checks the
// replay reports divergence.
func TestReplayDetectsTampering(t *testing.T) {
	journal := string(captureSession(t, 2))
	lines := strings.Split(strings.TrimRight(journal, "\n"), "\n")
	tampered := -1
	for i, l := range lines {
		if !strings.Contains(l, `"digest":"`) {
			continue
		}
		pos := strings.Index(l, `"digest":"`) + len(`"digest":"`)
		flipped := byte('0')
		if l[pos] == '0' {
			flipped = '1'
		}
		payload := []byte(l[frameLen:pos] + string(flipped) + l[pos+1:])
		lines[i] = strings.TrimSuffix(string(frameLine(payload)), "\n")
		tampered = i
	}
	if tampered < 0 {
		t.Fatal("no digest in journal")
	}
	in := strings.Join(lines, "\n") + "\n"
	if _, err := Replay(strings.NewReader(in)); err == nil {
		t.Fatal("replay accepted a tampered digest")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayDetectsCRCCorruption flips a payload byte mid-file without
// fixing the frame: the CRC must catch it, and because valid records
// follow, it is corruption (hard error), not a tolerated torn tail.
func TestReplayDetectsCRCCorruption(t *testing.T) {
	journal := captureSession(t, 2)
	lines := bytes.Split(bytes.TrimRight(journal, "\n"), []byte("\n"))
	if len(lines) < 3 {
		t.Fatal("journal too short")
	}
	mid := lines[len(lines)/2]
	mid[frameLen] ^= 0x01 // first payload byte
	in := append(bytes.Join(lines, []byte("\n")), '\n')
	_, err := Replay(bytes.NewReader(in))
	if err == nil {
		t.Fatal("replay accepted a CRC-corrupt record with valid history after it")
	}
	if !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayToleratesCorruptFinalRecord corrupts only the last record:
// with nothing readable after it, that is indistinguishable from a torn
// tail and must be tolerated, reported in TornRecords.
func TestReplayToleratesCorruptFinalRecord(t *testing.T) {
	journal := captureSession(t, 2)
	trimmed := bytes.TrimRight(journal, "\n")
	corrupt := append([]byte(nil), trimmed...)
	corrupt[len(corrupt)-2] ^= 0x01
	corrupt = append(corrupt, '\n')
	res, err := Replay(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("replay of journal with corrupt final record: %v", err)
	}
	if res.TornRecords != 1 {
		t.Fatalf("TornRecords = %d, want 1", res.TornRecords)
	}
}

// TestReplayTruncatedTail checks a journal cut after a drain marker
// (daemon killed mid-epoch) still replays cleanly.
func TestReplayTruncatedTail(t *testing.T) {
	journal := string(captureSession(t, 2))
	idx := strings.LastIndex(journal, `{"t":"epoch"`)
	if idx < 0 {
		t.Fatal("no epoch record")
	}
	res, err := Replay(strings.NewReader(journal[:idx]))
	if err != nil {
		t.Fatalf("replay of truncated journal: %v", err)
	}
	if res.Epochs != res.Matched+1 {
		t.Fatalf("epochs %d, matched %d: trailing drain should be unmatched", res.Epochs, res.Matched)
	}
}

// TestReplayRejectsGarbage checks headerless and malformed journals
// error out instead of panicking.
func TestReplayRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		`{"t":"reg","id":"x","e":1,"d":1}`,
		"not json\n",
	} {
		if _, err := Replay(strings.NewReader(in)); err == nil {
			t.Errorf("Replay(%q) accepted garbage", in)
		}
	}
}

// TestJournalConcurrentAdmissionsReplay journals a session whose
// admissions race from many goroutines. Whatever interleaving the
// journal captured is the ground truth — replay must still match every
// digest, because journal order is admission order by construction.
func TestJournalConcurrentAdmissionsReplay(t *testing.T) {
	const writers, perWriter = 6, 30
	epochs := 1
	journal := capture(t, testConfig(nil), func(e *Engine) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					if err := e.Register(id, 1.0, units.Meter(0.5+0.1*float64(i%30))); err != nil {
						t.Errorf("register: %v", err)
						return
					}
					if err := e.Update(id, 0.5, units.Meter(0.5+0.1*float64(i%30))); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { defer close(done); wg.Wait() }()
	loop:
		for {
			mustEpoch(t, e)
			select {
			case <-done:
				mustEpoch(t, e)
				epochs++
				break loop
			default:
				epochs++
			}
		}
	})

	res, err := Replay(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Matched != epochs {
		t.Fatalf("matched %d epochs, want %d", res.Matched, epochs)
	}
	if res.Ops != writers*perWriter*2 {
		t.Fatalf("replayed %d ops, want %d", res.Ops, writers*perWriter*2)
	}
}

// stripFrames drops the CRC frame from every line of a captured
// journal, giving the bare JSONL a pre-CRC capture holds.
func stripFrames(journal []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		if payload, framed, err := unframeLine(bytes.TrimSuffix(line, []byte("\n"))); framed && err == nil {
			line = append(payload, '\n')
		}
		out = append(out, line...)
	}
	return out
}

// TestReplayLegacyCapture replays a capture written as bare JSONL, the
// pre-CRC form, headed by a config record: every digest must still
// match.
func TestReplayLegacyCapture(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Workers = 2
	e := NewEngine(cfg)
	var buf bytes.Buffer
	j := configJournal(bufio.NewWriter(&buf), e.Config())
	e.attachJournal(j)
	runSession(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := stripFrames(buf.Bytes())
	if bytes.Contains(legacy, []byte(` {"t":`)) {
		t.Fatal("frames left in the legacy capture")
	}
	res, err := Replay(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Epochs != 4 || res.Matched != 4 || res.Ops != 49 {
		t.Fatalf("replayed %d ops, %d epochs, matched %d, want 49 ops and 4/4", res.Ops, res.Epochs, res.Matched)
	}
}

// TestReplayRejectsBrokenEpochOrder tampers with the epoch boundaries of
// a capture, re-framing each edited line so its CRC passes: a drain must
// carry the next epoch number, and only the final epoch record may be
// missing, since RunEpoch writes epoch N before drain N+1.
func TestReplayRejectsBrokenEpochOrder(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(lines []string) []string
	}{
		{"missing epoch record", "record missing", func(lines []string) []string {
			for i, l := range lines {
				if strings.Contains(l, `{"t":"epoch","epoch":1,`) {
					return append(lines[:i:i], lines[i+1:]...)
				}
			}
			t.Fatal("no epoch 1 record")
			return nil
		}},
		{"drain skips an epoch", "drain epoch 3, want 2", func(lines []string) []string {
			for i, l := range lines {
				if strings.HasSuffix(l, `{"t":"drain","epoch":2}`) {
					lines[i] = strings.TrimSuffix(string(frameLine([]byte(`{"t":"drain","epoch":3}`))), "\n")
					return lines
				}
			}
			t.Fatal("no drain 2 record")
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimRight(string(captureSession(t, 2)), "\n"), "\n")
			in := strings.Join(tc.edit(lines), "\n") + "\n"
			res, err := Replay(strings.NewReader(in))
			if err == nil {
				t.Fatalf("replay accepted the journal (%d epochs, %d matched)", res.Epochs, res.Matched)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// hugeWindowJournal is the first 230 lines of the single-stream fixture
// with the header's window raised to math.MaxInt64 and the header
// re-framed so its CRC passes. Unbounded, its first epoch's block
// expansion overflowed and spun for ~2^63 iterations.
func hugeWindowJournal(tb testing.TB) []byte {
	tb.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr7_single_stream.journal"))
	if err != nil {
		tb.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))[:230]
	payload, framed, err := unframeLine(bytes.TrimSuffix(lines[0], []byte("\n")))
	if !framed || err != nil || !bytes.Contains(payload, []byte(`"window":64,`)) {
		tb.Fatalf("unexpected fixture header %q", lines[0])
	}
	lines[0] = frameLine(bytes.Replace(payload, []byte(`"window":64,`), []byte(`"window":9223372036854775807,`), 1))
	return bytes.Join(lines, nil)
}

// TestReplayRejectsHugeWindow: a journal head whose window exceeds
// maxWindow fails to replay with an error naming the window.
func TestReplayRejectsHugeWindow(t *testing.T) {
	_, err := Replay(bytes.NewReader(hugeWindowJournal(t)))
	if err == nil || !strings.Contains(err.Error(), "window 9223372036854775807 exceeds") {
		t.Fatalf("replay error %v, want the window rejected", err)
	}
}

// TestJournalHeaderMatchesFixture pins the config header's bytes:
// configJournal, given the config the committed single-stream fixture
// was captured with, must write that capture's first line exactly, so
// the config-headed input the tests build is the shape real captures
// have.
func TestJournalHeaderMatchesFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr7_single_stream.journal"))
	if err != nil {
		t.Fatal(err)
	}
	want := fixture[:bytes.IndexByte(fixture, '\n')+1]
	var buf bytes.Buffer
	j := configJournal(bufio.NewWriter(&buf), Config{RatioTolerance: 0.05, DistanceTolerance: 0.05, Window: 64, HubEnergy: 10, QueueCap: 4096})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("header\n%s\nwant\n%s", buf.Bytes(), want)
	}
}
