package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeJournalLine feeds arbitrary bytes to the journal line
// decoder, strict and legacy: every input must give a record or an
// error, never a panic, and any record it accepts must re-marshal and
// re-frame into a line that decodes to the same record. Records are
// compared by their JSON encoding, which treats a nil and an empty
// omitempty slice alike, as the journal does.
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
			line := frameLine(payload)
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
