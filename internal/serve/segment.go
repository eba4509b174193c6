// Crash-safe journal storage: per-record CRC framing, sync policies,
// and the segmented journal directory (journal.d/seg-NNNN.jsonl).
//
// Framing. Every journal line is `CCCCCCCC <json>\n` where CCCCCCCC is
// the lowercase-hex CRC32-C of the JSON payload. The frame makes torn
// and bit-rotted records detectable: a crash mid-write leaves either a
// line without its newline or a line whose checksum no longer matches,
// and the journal reader (replayJournal, recover.go) tells "tail torn
// by the crash" (truncate and keep going) from "history corrupted"
// (hard error) by where the bad record sits. It accepts bare legacy
// JSONL lines only outside segments (Replay of pre-CRC captures).
//
// Segments. The journal is a sequence of segment files; every segment
// begins with a full-state snapshot record, so recovery never reads
// more than one segment: restore the newest segment's head snapshot and
// replay its tail, through the same reader Replay uses. Rotation (a new segment) happens exactly when a snapshot
// is written, and compaction deletes segments older than the newest
// snapshot (minus a configurable retain count). Rotation orders its
// writes for crash safety: the new segment's snapshot is written behind
// a placeholder frame, its CRC patched in at offset 0 and fsynced
// before any old segment is deleted, so a crash at any instant leaves
// either a valid new head or the intact previous segment; a head whose
// CRC was never patched in reads as CRC-bad, like any torn head.

package serve

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// SyncPolicy selects when journal writes are flushed and fsynced to
// stable storage — the durability/throughput trade-off.
type SyncPolicy uint8

const (
	// SyncNone never fsyncs: flushing is left to the bufio layer and
	// the OS page cache. Fastest; a crash can lose everything since the
	// last incidental flush.
	SyncNone SyncPolicy = iota
	// SyncEpoch flushes and fsyncs once per epoch record (the default):
	// every completed epoch — its operations, drain marker, and digest —
	// is durable; operations admitted after the last epoch boundary may
	// be lost to a crash.
	SyncEpoch
	// SyncAlways flushes and fsyncs after every record: an admitted
	// operation is durable before the admission call returns. Slowest —
	// one fsync per admission, inside the admission critical section.
	SyncAlways
)

// ParseSyncPolicy parses "none", "epoch", or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "epoch":
		return SyncEpoch, nil
	case "always":
		return SyncAlways, nil
	}
	return SyncNone, fmt.Errorf("serve: unknown sync policy %q (want none|epoch|always)", s)
}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64) shared by framing and verification.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameLen is the fixed framing overhead: 8 hex CRC digits + 1 space.
const frameLen = 9

// framePlaceholder is a frame written before its payload's CRC is
// known; the writer fills the eight digits in once it is.
const framePlaceholder = "00000000 "

// appendCRCHex appends exactly 8 lowercase hex digits of v.
func appendCRCHex(dst []byte, v uint32) []byte {
	const hexdigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(v>>shift)&0xf])
	}
	return dst
}

// parseCRCHex parses 8 lowercase/uppercase hex digits; ok is false on
// any non-hex byte.
func parseCRCHex(b []byte) (v uint32, ok bool) {
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// unframeLine validates and strips the CRC frame from one journal line
// (without its newline). framed is false when the line does not carry a
// frame at all (a legacy bare-JSON line); err is non-nil when the line
// is framed but the checksum does not match its payload.
func unframeLine(line []byte) (payload []byte, framed bool, err error) {
	if len(line) < frameLen || line[frameLen-1] != ' ' {
		return nil, false, nil
	}
	want, ok := parseCRCHex(line[:frameLen-1])
	if !ok {
		return nil, false, nil
	}
	payload = line[frameLen:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, true, fmt.Errorf("crc mismatch: frame %08x, payload %08x", want, got)
	}
	return payload, true, nil
}

// lineReader reads journal lines from a stream for the journal reader,
// tracking line numbers and byte offsets so it can report exactly where
// a tail tore.
type lineReader struct {
	rd *bufio.Reader
	// name labels the stream in errors ("journal", "segment <path>").
	name string
	// max bounds a single line; 0 means unbounded. The reader is handed
	// 1 MiB by Replay, to bound memory on untrusted files, and a far
	// larger cap by recovery, because snapshot heads scale with
	// membership.
	max int
	// line is the 1-based number of the line most recently returned.
	line int
	// off is the byte offset of the start of that line; next is the
	// offset just past it.
	off, next int64
}

func newLineReader(r io.Reader, max int, name string) *lineReader {
	return &lineReader{rd: bufio.NewReaderSize(r, 1<<16), name: name, max: max}
}

// errorf formats an error located at the line most recently read.
func (lr *lineReader) errorf(format string, args ...any) error {
	return fmt.Errorf("serve: %s line %d: %w", lr.name, lr.line, fmt.Errorf(format, args...))
}

// read returns the next line without its trailing newline. complete is
// false when the stream ended mid-line (no newline — the classic torn
// tail). A clean end of stream returns io.EOF.
func (lr *lineReader) read() (data []byte, complete bool, err error) {
	data, err = lr.rd.ReadBytes('\n')
	if len(data) == 0 {
		if err == nil || err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, false, err
	}
	lr.line++
	lr.off = lr.next
	lr.next += int64(len(data))
	complete = data[len(data)-1] == '\n'
	if complete {
		data = data[:len(data)-1]
	}
	if lr.max > 0 && len(data) > lr.max {
		return nil, complete, fmt.Errorf("serve: %s line %d too long (exceeds %d bytes)", lr.name, lr.line, lr.max)
	}
	if err != nil && err != io.EOF {
		return nil, complete, err
	}
	return data, complete, nil
}

// segmentInfo describes one on-disk segment file.
type segmentInfo struct {
	idx  int
	path string
	size int64
}

// segPattern names segment idx; %04d grows naturally past 9999.
func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%04d.jsonl", idx))
}

// listSegments returns the directory's segment files sorted by index.
// Files that do not match the seg-NNNN.jsonl pattern are ignored.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if n, err := fmt.Sscanf(e.Name(), "seg-%d.jsonl", &idx); n != 1 || err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segmentInfo{idx: idx, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// syncDir fsyncs a directory so file creations and deletions inside it
// are durable (the metadata half of crash-safe rotation).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// createSegment creates a fresh segment file (failing if it already
// exists — indices never repeat) and makes the creation durable.
func createSegment(dir string, idx int) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// removeSegmentsBelow deletes every segment with index < keep and
// returns how many were removed. Deletion order is oldest-first and the
// directory is fsynced afterwards; a crash mid-compaction leaves a
// suffix of the old segments, which the next compaction removes.
func removeSegmentsBelow(dir string, keep int) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range segs {
		if s.idx >= keep {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
