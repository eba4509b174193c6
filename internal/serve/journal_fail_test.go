package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"braidio/internal/obs"
)

// errWriter fails every write with a fixed error.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// shortWriter accepts one byte fewer than offered and reports no error —
// the misbehaviour bufio surfaces as io.ErrShortWrite.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return len(p) - 1, nil
}

// brokenJournal builds a journal whose first record already failed: a
// tiny bufio buffer in front of a failing writer, so the config header
// flush hits the error immediately.
func brokenJournal(rec *obs.Recorder) *Journal {
	return configJournal(bufio.NewWriterSize(errWriter{err: errors.New("disk gone")}, 8), testConfig(rec))
}

// TestJournalStickyErrorAndCounter checks the first write failure is
// sticky, surfaced by Err, returned by Close, and that every dropped
// record afterwards bumps the journal-error counter.
func TestJournalStickyErrorAndCounter(t *testing.T) {
	rec := &obs.Recorder{}
	j := brokenJournal(rec)
	first := j.Err()
	if first == nil {
		t.Fatal("Err() nil after a failed write")
	}
	if got := rec.ServeJournalErrors.Load(); got != 1 {
		t.Fatalf("ServeJournalErrors = %d after first failure, want 1", got)
	}
	j.drain(1) // dropped on the sticky error
	if got := rec.ServeJournalErrors.Load(); got != 2 {
		t.Fatalf("ServeJournalErrors = %d after a dropped record, want 2", got)
	}
	if err := j.Close(); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("Close() = %v, want the first error %v", err, first)
	}
}

// TestJournalShortWrite checks a writer that under-reports its write is
// caught (bufio turns it into io.ErrShortWrite) instead of silently
// losing bytes.
func TestJournalShortWrite(t *testing.T) {
	// The record sits in the bufio buffer; the flush at Close is what
	// hands it to the misbehaving writer.
	j := configJournal(bufio.NewWriterSize(shortWriter{}, 1<<16), testConfig(nil))
	if err := j.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close() = %v, want io.ErrShortWrite", err)
	}
	if err := j.Err(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Err() = %v, want io.ErrShortWrite", err)
	}
}

// TestJournalSyncFailure drives the file-backed path: a flush and
// fsync against a closed segment descriptor must surface through Err,
// not vanish.
func TestJournalSyncFailure(t *testing.T) {
	rec := &obs.Recorder{}
	e, j, _, err := Open(t.TempDir(), testConfig(rec), JournalOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close() // the next record flushes and fsyncs into a closed fd
	if err := e.Register("a", 1, 1); err != nil {
		t.Fatal(err)
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after sync against a closed file")
	}
	if rec.ServeJournalErrors.Load() == 0 {
		t.Fatal("ServeJournalErrors stayed 0")
	}
}

// TestJournalFailStop checks the fail-stop admission policy: once the
// journal is broken the engine sheds with ErrJournalBroken and reports
// the error in Stats; without fail-stop it keeps admitting.
func TestJournalFailStop(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(rec)
	cfg.JournalFailStop = true
	e := NewEngine(cfg)
	e.attachJournal(brokenJournal(rec))

	err := e.Register("a", 1, 1)
	if !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("Register under fail-stop = %v, want ErrJournalBroken", err)
	}
	if rec.ServeSheds.Load() == 0 {
		t.Error("ServeSheds stayed 0 after a fail-stop shed")
	}
	if st := e.Stats(); st.JournalError == "" {
		t.Error("Stats().JournalError empty with a broken journal attached")
	}
	if e.JournalErr() == nil {
		t.Error("JournalErr() nil with a broken journal attached")
	}

	// Without fail-stop the same situation keeps admitting: the journal
	// is degraded, not the service.
	cfg.JournalFailStop = false
	e2 := NewEngine(cfg)
	e2.attachJournal(brokenJournal(rec))
	if err := e2.Register("a", 1, 1); err != nil {
		t.Fatalf("Register without fail-stop = %v, want nil", err)
	}
}

// TestReplayRejectsOverlongLine checks Replay bounds line length with a
// clear error instead of buffering unbounded input.
func TestReplayRejectsOverlongLine(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(frameLine([]byte(`{"t":"config","hub_j":10}`)))
	// A syntactically valid framed record, just far past the 1 MiB cap.
	huge := []byte(`{"t":"reg","id":"` + strings.Repeat("x", replayMaxLine+1024) + `","e":1,"d":1}`)
	buf.Write(frameLine(huge))
	_, err := Replay(&buf)
	if err == nil {
		t.Fatal("Replay accepted an overlong line")
	}
	if !strings.Contains(err.Error(), "journal line 2 too long") {
		t.Fatalf("unexpected error: %v", err)
	}
}
