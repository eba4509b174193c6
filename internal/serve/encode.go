// Journal encoding without reflection. Every journal record is written
// by the appenders below, which produce exactly the bytes json.Marshal
// writes for the same value: encoding/json's field order and
// omitempty, its HTML-safe string escaping, its float format (the
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// exponents unpadded) and null for a nil slice. A NaN or infinite float
// is an error, as it is for json.Marshal, and no line is written. The
// bytes stay encoding/json's so that every journal, fixture and
// snapshot written before the appenders keeps its bytes, and so that
// the reader keeps decoding with json.Unmarshal.
//
// A snapshot head is the one record that scales with membership. It is
// streamed: headWriter hands the encoded bytes to the segment about
// headChunk at a time and accumulates their CRC as they go, so the
// memory a snapshot takes is bounded by the chunk, not by the record.

package serve

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// encoder appends JSON to b. err is the first value JSON cannot
// represent; the bytes appended since are meaningless and the caller
// drops them.
type encoder struct {
	b   []byte
	err error
}

func (w *encoder) raw(s string) { w.b = append(w.b, s...) }

func (w *encoder) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *encoder) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// str appends s quoted. A string with a byte encoding/json escapes
// (a control byte, `"`, `\`, `<`, `>`, `&` or any non-ASCII byte, which
// may be invalid UTF-8 or U+2028/U+2029) is rare in a journal, so it is
// left to json.Marshal itself.
func (w *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float appends f as encoding/json formats a float64.
func (w *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		// e-07 is written e-7
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// record appends r: encoding/json's bytes for every record type.
func (w *encoder) record(r *record) {
	w.opFields(r.T, r.ID, r.E, r.D)
	if r.Epoch != 0 {
		w.raw(`,"epoch":`)
		w.uint(r.Epoch)
	}
	if r.Planned != 0 {
		w.raw(`,"planned":`)
		w.int(r.Planned)
	}
	if r.Clean != 0 {
		w.raw(`,"clean":`)
		w.int(r.Clean)
	}
	if r.Members != 0 {
		w.raw(`,"members":`)
		w.int(r.Members)
	}
	if r.Digest != "" {
		w.raw(`,"digest":`)
		w.str(r.Digest)
	}
	w.configFields(&r.journalConfig)
	if r.QueueCap != 0 {
		w.raw(`,"queue_cap":`)
		w.int(r.QueueCap)
	}
	if r.Snap != nil {
		w.raw(`,"snap":`)
		w.snapshot(r.Snap)
	}
	w.raw("}")
}

// configFields appends c's fields, each with a leading comma, as the
// fields of an enclosing object.
func (w *encoder) configFields(c *journalConfig) {
	if c.RatioTol != 0 {
		w.raw(`,"ratio_tol":`)
		w.float(c.RatioTol)
	}
	if c.DistTol != 0 {
		w.raw(`,"dist_tol":`)
		w.float(c.DistTol)
	}
	if c.Window != 0 {
		w.raw(`,"window":`)
		w.int(c.Window)
	}
	if c.HubJ != 0 {
		w.raw(`,"hub_j":`)
		w.float(c.HubJ)
	}
}

// snapshot appends s through the same pieces the streamed head uses.
func (w *encoder) snapshot(s *snapshotRecord) {
	w.snapOpen(s.Epoch, s.Ops, s.HubJ, &s.Cfg)
	for i := range s.Members {
		m := &s.Members[i]
		w.listItem(i, `,"members":[`)
		w.member(m.ID, m.E, m.D, m.Dirty, m.Plan)
	}
	w.listEnd(len(s.Members))
	for i := range s.Queue {
		q := &s.Queue[i]
		w.listItem(i, `,"queue":[`)
		w.queued(q.T, q.ID, q.E, q.D)
	}
	w.listEnd(len(s.Queue))
	w.raw("}")
}

// snapOpen appends a snapshot record's opening brace and the fields
// before its members.
func (w *encoder) snapOpen(epoch, ops uint64, hubJ float64, cfg *journalConfig) {
	w.raw(`{"epoch":`)
	w.uint(epoch)
	w.raw(`,"ops":`)
	w.uint(ops)
	w.raw(`,"hub_j":`)
	w.float(hubJ)
	w.raw(`,"cfg":`)
	// The config's fields are all omitempty: write them comma-led and
	// turn the first comma into the brace.
	start := len(w.b)
	w.configFields(cfg)
	if len(w.b) == start {
		w.raw("{}")
		return
	}
	w.b[start] = '{'
	w.raw("}")
}

// listItem opens an omitempty list field with open before its first
// item and separates the others.
func (w *encoder) listItem(i int, open string) {
	if i == 0 {
		w.raw(open)
	} else {
		w.raw(",")
	}
}

// listEnd closes a list field that listItem opened, if it had items.
func (w *encoder) listEnd(n int) {
	if n > 0 {
		w.raw("]")
	}
}

// member appends one memberRecord.
func (w *encoder) member(id string, e, d float64, dirty bool, plan *Plan) {
	w.raw(`{"id":`)
	w.str(id)
	w.raw(`,"e":`)
	w.float(e)
	w.raw(`,"d":`)
	w.float(d)
	if dirty {
		w.raw(`,"dirty":true`)
	}
	if plan != nil {
		w.raw(`,"plan":`)
		w.plan(plan)
	}
	w.raw("}")
}

// plan appends p; its slices are not omitempty, so nil is null.
func (w *encoder) plan(p *Plan) {
	w.raw(`{"epoch":`)
	w.uint(p.Epoch)
	w.raw(`,"ratio":`)
	w.float(p.Ratio)
	w.raw(`,"distance_m":`)
	w.float(p.Distance)
	w.raw(`,"modes":`)
	list(w, p.Modes, w.str)
	w.raw(`,"fractions":`)
	list(w, p.Fractions, w.float)
	w.raw(`,"blocks":`)
	list(w, p.Blocks, w.int)
	w.raw(`,"bits":`)
	w.float(p.Bits)
	w.raw("}")
}

// list appends s as a JSON array, each element by item, or null when s
// is nil.
func list[T any](w *encoder, s []T, item func(T)) {
	if s == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, v := range s {
		if i > 0 {
			w.raw(",")
		}
		item(v)
	}
	w.raw("]")
}

// queued appends one queuedOp.
func (w *encoder) queued(t, id string, e, d float64) {
	w.opFields(t, id, e, d)
	w.raw("}")
}

// opFields opens an object with the fields a record and a queuedOp
// share, in their order: t, then id, e and d, each omitted when empty.
func (w *encoder) opFields(t, id string, e, d float64) {
	w.raw(`{"t":`)
	w.str(t)
	if id != "" {
		w.raw(`,"id":`)
		w.str(id)
	}
	if e != 0 {
		w.raw(`,"e":`)
		w.float(e)
	}
	if d != 0 {
		w.raw(`,"d":`)
		w.float(d)
	}
}

// headChunk is how many encoded bytes a headWriter gathers before it
// writes them: the size of the segment's buffered writer.
const headChunk = 1 << 16

// headWriter streams a segment head's payload to w: the encoder's
// buffer is written out, and folded into crc, whenever it holds
// headChunk bytes. A write error lands in err, like an encoding error.
type headWriter struct {
	encoder
	w   io.Writer
	crc uint32
}

// spill writes the buffer once it holds headChunk bytes.
func (h *headWriter) spill() {
	if len(h.b) >= headChunk {
		h.flush()
	}
}

// flush writes out and empties the buffer; after an error it only
// empties it, so a failed head still takes one chunk of memory.
func (h *headWriter) flush() {
	if h.err == nil {
		h.crc = crc32.Update(h.crc, crcTable, h.b)
		_, h.err = h.w.Write(h.b)
	}
	h.b = h.b[:0]
}
