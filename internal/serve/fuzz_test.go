package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"braidio/internal/units"
)

// FuzzDecodeJournalLine feeds arbitrary bytes to the journal line
// decoder, strict and legacy: every input must give a record or an
// error, never a panic, and any record it accepts must re-marshal and
// re-frame into a line that decodes to the same record. Records are
// compared by their JSON encoding, which treats a nil and an empty
// omitempty slice alike, as the journal does. Every accepted record
// must also encode, through the journal's appender (a snapshot through
// the per-member pieces its streamed head uses), to exactly
// json.Marshal's bytes, and the journal must frame it as frameLine
// does.
func FuzzDecodeJournalLine(f *testing.F) {
	frame := func(payload string) []byte {
		line := frameLine([]byte(payload))
		return line[:len(line)-1]
	}
	for _, payload := range []string{
		`{"t":"config","ratio_tol":0.05,"dist_tol":0.05,"window":64,"hub_j":10,"queue_cap":4096}`,
		`{"t":"reg","id":"m0","e":0.3,"d":0.4}`,
		`{"t":"epoch","epoch":6,"planned":3,"clean":1,"members":4,"digest":"00ff"}`,
		`{"t":"snap","snap":{"epoch":6,"ops":281,"hub_j":5,"cfg":{"window":64},` +
			`"members":[{"id":"m0","e":0.15,"d":0.4,"plan":{"epoch":6,"ratio":33.3,"distance_m":0.4,` +
			`"modes":["active","passive"],"fractions":[0.9,0.1],"blocks":[58,6],"bits":2.8e7}}],` +
			`"queue":[{"t":"upd","id":"m0","e":0.1,"d":0.5}]}}`,
	} {
		f.Add(frame(payload))
		f.Add([]byte(payload)) // legacy bare line
	}
	bad := frame(`{"t":"hub","e":7}`)
	bad[0] ^= 1 // CRC mismatch
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte("00000000 "))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, allowLegacy := range []bool{false, true} {
			rec, err := decodeJournalLine(data, allowLegacy)
			if err != nil {
				continue
			}
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("allowLegacy=%v: decoded record does not re-marshal: %v", allowLegacy, err)
			}
			if got, err := encodeRecord(&rec); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("allowLegacy=%v: appender wrote\n%s\nencoding/json\n%s (%v)", allowLegacy, got, payload, err)
			}
			line := frameLine(payload)
			var buf bytes.Buffer
			j := &Journal{w: bufio.NewWriter(&buf)}
			j.write(rec)
			if err := j.Close(); err != nil || !bytes.Equal(buf.Bytes(), line) {
				t.Fatalf("allowLegacy=%v: journal wrote\n%q\nwant\n%q (%v)", allowLegacy, buf.Bytes(), line, err)
			}
			again, err := decodeJournalLine(line[:len(line)-1], false)
			if err != nil {
				t.Fatalf("allowLegacy=%v: re-framed record does not decode: %v", allowLegacy, err)
			}
			if payload2, err := json.Marshal(again); err != nil || !bytes.Equal(payload2, payload) {
				t.Fatalf("allowLegacy=%v: round trip changed the record:\n%s\n%s (%v)", allowLegacy, payload, payload2, err)
			}
		}
	})
}

// FuzzReplay feeds arbitrary bytes to Replay, the journal reader's
// untrusted entry point: config- and snapshot-headed streams, framed or
// bare. Every input must replay or fail with an error, never panic, and
// a successful replay may leave at most the final epoch unmatched.
func FuzzReplay(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "pr7_single_stream.journal"))
	if err != nil {
		f.Fatal(err)
	}
	// The fixture's header and first registrations, kept short so each
	// execution is cheap; the segment seed supplies epoch boundaries.
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	f.Add(bytes.Join(lines[:8], nil))
	seg := snapshotSegment(f)
	f.Add(seg)
	f.Add(stripFrames(seg)) // bare lines: mutations need not fix CRCs
	// Huge queue caps: an untrusted header's cap must size nothing.
	f.Add(frameLine([]byte(`{"t":"config","hub_j":10,"queue_cap":1000000000000000000}`)))
	f.Add([]byte(`{"t":"config","queue_cap":800000001}` + "\n"))
	// A window near math.MaxInt64 once hung the first epoch's block
	// expansion. The seed keeps what reaches it: the head, one
	// registration and the first drain of TestReplayRejectsHugeWindow's
	// input, whose full 230 lines cut the execution rate about 20×.
	huge := bytes.SplitAfter(hugeWindowJournal(f), []byte("\n"))
	f.Add(bytes.Join([][]byte{huge[0], huge[1], huge[122]}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Replay(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Matched > st.Epochs || st.Epochs > st.Matched+1 {
			t.Fatalf("replayed %d epochs, matched %d", st.Epochs, st.Matched)
		}
	})
}

// FuzzHTTPBodies posts arbitrary bytes to the three admission routes
// through Server.Handler, runs two epochs and reads the plans back.
// Every admission must answer 202, 400, 413 or 503, each non-2xx with
// an "error" JSON body; no epoch or plan read may answer 5xx, and
// nothing may panic. A small queue and body cap put the 503 and 413
// paths within a fuzzer's reach.
func FuzzHTTPBodies(f *testing.F) {
	for _, body := range []string{
		`{"id":"m0","energy_j":0.3,"distance_m":0.4}`,
		`[{"id":"m0","energy_j":0.3,"distance_m":0.4},{"id":"m1","energy_j":0.5,"distance_m":2.5}]`,
		`null`,
		`{"id":"m0","energy_j":1e-320,"distance_m":5e-324}`,
		`{"energy_j":7}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := testConfig(nil)
		cfg.QueueCap = 8
		h := (&Server{Engine: NewEngine(cfg), MaxBodyBytes: 1 << 10}).Handler()
		do := func(method, target string, body []byte) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
			return w
		}
		for _, route := range []string{"/v1/register", "/v1/update", "/v1/hub"} {
			w := do(http.MethodPost, route, body)
			switch w.Code {
			case http.StatusAccepted:
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s: %d without an error body: %q", route, w.Code, w.Body)
				}
			default:
				t.Fatalf("%s: status %d: %s", route, w.Code, w.Body)
			}
		}
		for i := 0; i < 2; i++ {
			if w := do(http.MethodPost, "/v1/epoch", nil); w.Code >= 500 {
				t.Fatalf("epoch %d: status %d: %s", i, w.Code, w.Body)
			}
		}
		// Read back every id the body names, decoded as the handler
		// decodes it, and one it may not name.
		var reqs []DeviceRequest
		if json.Unmarshal(body, &reqs) != nil {
			reqs = make([]DeviceRequest, 1)
			json.Unmarshal(body, &reqs[0])
		}
		reqs = append(reqs, DeviceRequest{ID: "m0"})
		for _, q := range reqs {
			if w := do(http.MethodGet, "/v1/plan?id="+url.QueryEscape(q.ID), nil); w.Code >= 500 {
				t.Fatalf("plan %q: status %d: %s", q.ID, w.Code, w.Body)
			}
		}
	})
}

// snapshotSegment captures a small journal directory and returns its
// newest segment: a snapshot head with three planned members, then a
// tail of operations, a drain and an epoch record.
func snapshotSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "journal.d")
	eng, j, _, err := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 2})
	if err != nil {
		tb.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		for i := 0; i < 3; i++ {
			if err := eng.Register(fmt.Sprintf("m%d", i), units.Joule(0.2+0.1*float64(epoch+i)), 0.5); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := eng.RunEpoch(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(segs[len(segs)-1].path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
